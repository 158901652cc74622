"""Self-test of the benchmark's checker.

    python3 perfbench/selftest.py

Runs genuine analyses, confirms the checker accepts them, then corrupts
each report in one way and confirms the checker rejects every corruption.
Also checks the benchmark's own Weyl dimensions against values from the
literature and the tracer's module-dimension check.  Exits 1 on any miss.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import lie  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def _drop_tangent_weight(rep):
    t = rep["tangent"]
    t["coords"].pop()
    t["weights"].pop()
    t["dimension"] -= 1


def _flip_maximal(rep):
    rep["subsets"][-1]["maximal"] = not rep["subsets"][-1]["maximal"]


def _add_foreign_member(rep):
    s = next(s for s in rep["subsets"] if s["size"] == 1)
    s["coords"].append([1, 1])
    s["roots"].append("a1+a2")
    s["size"] += 1


def _dependent_subset(rep):
    s = next(s for s in rep["subsets"] if s["size"] == 1)
    rep["subsets"].append({"coords": s["coords"] * 2, "roots": s["roots"] * 2,
                           "size": 2, "maximal": False})


def _drop_singleton(rep):
    rep["subsets"].remove(next(s for s in rep["subsets"] if s["size"] == 1))


def _oracle_extra_weight(rep):
    rep["oracle"]["coords"].append([1, 1])
    rep["oracle"]["multiplicities"].append(1)


def _oracle_multiplicity(rep):
    rep["oracle"]["multiplicities"][0] = 2


def _oracle_flag(rep):
    rep["oracle"]["agrees"] = False


def _too_many_roots(rep):
    tangent = rep["tangent"]["coords"]
    rep["subsets"].append({"coords": tangent + [[9, 9]], "roots": ["x"] * (len(tangent) + 1),
                           "size": len(tangent) + 1, "maximal": True})


CORRUPTIONS = {
    "dropped tangent weight": _drop_tangent_weight,
    "flipped maximal flag": _flip_maximal,
    "subset member outside the tangent weights": _add_foreign_member,
    "linearly dependent subset": _dependent_subset,
    "singleton subsets differ from the tangent weights": _drop_singleton,
    "oracle weight the tangent lacks": _oracle_extra_weight,
    "oracle multiplicity 2": _oracle_multiplicity,
    "report says the routes disagree": _oracle_flag,
    "subset with more than r roots": _too_many_roots,
}

# Dimensions of irreducible modules from the literature (Bourbaki numbering).
LITERATURE_DIMENSIONS = [
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E6", (0, 1, 0, 0, 0, 0), 78),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ("F4", (0, 0, 0, 1), 26),
    ("F4", (1, 0, 0, 0), 52),
    ("G2", (1, 0), 7),
    ("B3", (0, 0, 1), 8),
    ("B3", (1, 1, 1), 2 ** 9),     # rho: 2^N with N positive roots
    ("C3", (1, 1, 1), 2 ** 9),
    ("A3", (1, 1, 1), 2 ** 6),
    ("D4", (0, 1, 0, 0), 28),
]


def main() -> int:
    misses = []
    cli, _, _ = run.set_up("sweep", keep=True)
    cases = [
        corpus.Case("A1xA1", ((2, 0), (4, 2)), corpus.SWEEP_FLAGS),
        corpus.Case("A1xA1", ((2, 0), (0, 2)), corpus.SWEEP_FLAGS),
    ]
    for case in cases:
        group = lie.Group(case.group)
        _, status, text = run.run_case(cli, case)
        genuine = checks.check_report(case, group, status, text)
        print(f"{case.label}: genuine report -> {genuine or 'accepted'}")
        if genuine:
            misses.append(f"{case.label}: genuine report rejected")
        for name, corrupt in CORRUPTIONS.items():
            report = copy.deepcopy(json.loads(text))
            corrupt(report)
            errors = checks.check_report(case, group, 0, json.dumps(report))
            print(f"  {name}: {'rejected' if errors else 'ACCEPTED'}")
            if not errors:
                misses.append(f"{case.label}: {name} not rejected")
        if checks.check_report(case, group, 1, text) == []:
            misses.append(f"{case.label}: nonzero exit status not rejected")

    for name, lam, dim in LITERATURE_DIMENSIONS:
        got = lie.Group(name).weyl_dimension(lam)
        if got != dim:
            misses.append(f"Weyl dimension {name} {lam}: {got}, literature {dim}")
    print(f"Weyl dimensions: {len(LITERATURE_DIMENSIONS)} literature values checked")

    tracer = Tracer()
    rs = SimpleNamespace(components=(("E", 6),))
    tracer._after_build_irrep((rs, (1, 0, 0, 0, 0, 0)), SimpleNamespace(dim=27))
    tracer._after_build_irrep((rs, (1, 0, 0, 0, 0, 0)), SimpleNamespace(dim=26))
    if len(tracer.errors) != 1:
        misses.append(f"tracer module-dimension check: {tracer.errors}")
    print("tracer module-dimension check: wrong dimension rejected" if len(tracer.errors) == 1
          else "tracer module-dimension check: MISSED")

    for miss in misses:
        print(f"MISS: {miss}", file=sys.stderr)
    print("self-test", "failed" if misses else "passed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
