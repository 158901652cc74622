"""Checks on one `analyze --json` report.

Every check is a property the method must have, or a value computed here
apart from the program; none compares against a stored report.
"""

from __future__ import annotations

import json
from itertools import combinations

import lie


def check_report(case, group: lie.Group, status, text: str) -> list:
    """Failure messages for one analysis; an empty list means it passed."""
    if status != 0:
        return [f"exit status {status}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"output is not JSON: {e}"]
    errors = []
    for key in ("error", "subsets_error", "oracle_error"):
        if key in report:
            errors.append(f"{key}: {report[key]}")
    if errors:
        return errors

    basis = [list(w) for w in case.weights]
    r = len(basis)
    if report["request"]["weights"] != basis:
        errors.append("request weights do not echo the input")

    tangent = report["tangent"]
    tangent_set = {tuple(c) for c in tangent["coords"]}
    if not (tangent["dimension"] == len(tangent["coords"]) == len(tangent["weights"])
            == len(tangent_set)):
        errors.append("tangent dimension, names and coordinates disagree")
    flagged = {tuple(e["coords"]) for e in report["catalog"] if e["n_adapted"]}
    if flagged != tangent_set:
        errors.append("tangent weights differ from the catalog roots flagged n_adapted")
    for gamma in sorted(tangent_set):
        if not in_lattice(group, basis, gamma):
            errors.append(f"tangent weight {gamma} is outside the lattice spanned by F")

    if "--oracle" in case.flags:
        errors += _check_oracle(report.get("oracle"), tangent_set)
    if "--enumerate-subsets" in case.flags:
        if "subsets" not in report:
            errors.append("no subsets in the report")
        else:
            errors += _check_subsets(report["subsets"], tangent_set, r)
    errors += _check_closed_forms(case, report, tangent_set)
    return errors


def in_lattice(group: lie.Group, basis: list, root: tuple) -> bool:
    return lie.in_integer_span(basis, group.root_to_weight(root))


def _check_oracle(oracle, tangent_set: set) -> list:
    if oracle is None:
        return ["no oracle block in the report"]
    errors = []
    coords = {tuple(c) for c in oracle["coords"]}
    if coords != tangent_set:
        errors.append(f"routes disagree: oracle {sorted(coords)} vs tangent {sorted(tangent_set)}")
    if any(m != 1 for m in oracle["multiplicities"]):
        errors.append(f"oracle multiplicities {oracle['multiplicities']} are not all 1")
    if oracle["agrees"] is not True:
        errors.append("report says the routes disagree")
    return errors


def _check_subsets(subsets: list, tangent_set: set, r: int) -> list:
    errors = []
    keys = []
    for s in subsets:
        members = [tuple(c) for c in s["coords"]]
        key = frozenset(members)
        keys.append(key)
        if not (s["size"] == len(members) == len(key) == len(s["roots"])):
            errors.append(f"subset {members}: size field or members inconsistent")
        if len(members) > r:
            errors.append(f"subset {members} has more than r = {r} roots")
        if not key <= tangent_set:
            errors.append(f"subset {members} has a member outside the tangent weights")
        if members and lie.rank(members) != len(members):
            errors.append(f"subset {members} is linearly dependent")
    if len(set(keys)) != len(keys):
        errors.append("a subset is reported twice")
    singletons = {next(iter(k)) for k in keys if len(k) == 1}
    if singletons != tangent_set:
        errors.append(f"singleton subsets {sorted(singletons)} are not the tangent weights")
    for s, key in zip(subsets, keys):
        maximal = not any(key < other for other in keys)
        if s["maximal"] != maximal:
            errors.append(f"subset {sorted(key)}: maximal flag {s['maximal']}, inclusion says {maximal}")
    return errors


def _check_closed_forms(case, report: dict, tangent_set: set) -> list:
    """Inputs whose answer is known in closed form."""
    errors = []
    components = case.group.split("x")
    k = len(components)
    if set(components) == {"A1"} and all(
        w == tuple(2 if j == i else 0 for j in range(k)) for i, w in enumerate(case.weights)
    ) and len(case.weights) == k:
        # A1^k with F = 2 w_i: the doubled simple roots, every subset N-adapted.
        doubled = {tuple(2 if j == i else 0 for j in range(k)) for i in range(k)}
        if tangent_set != doubled:
            errors.append(f"A1^{k}: tangent {sorted(tangent_set)} is not {{2a_i}}")
        if "subsets" in report:
            got = {frozenset(tuple(c) for c in s["coords"]) for s in report["subsets"]}
            want = {frozenset(c) for n in range(k + 1) for c in combinations(sorted(doubled), n)}
            if got != want:
                errors.append(f"A1^{k}: subsets are not all 2^{k} subsets of the tangent weights")
            maximal = [s for s in report["subsets"] if s["maximal"]]
            if len(maximal) != 1 or maximal[0]["size"] != k:
                errors.append(f"A1^{k}: expected one maximal subset of size {k}")
    if case.group == "A1xA1" and case.weights == ((2, 0), (4, 2)):
        # Two lines crossing at the most degenerate point.
        if tangent_set != {(1, 0), (0, 2)}:
            errors.append(f"crossed lines: tangent {sorted(tangent_set)} is not {{a1, 2*a2}}")
        if "subsets" in report:
            maximal = {frozenset(tuple(c) for c in s["coords"])
                       for s in report["subsets"] if s["maximal"]}
            if maximal != {frozenset({(1, 0)}), frozenset({(0, 2)})}:
                errors.append("crossed lines: maximal subsets are not the two singletons")
    return errors
