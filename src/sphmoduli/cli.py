"""Command line front end.

    sphmoduli analyze --group A1xA1 --weights "[[2,0],[4,2]]" --json

Exit status: 0 on success, 1 when the independent tangent recomputation
disagrees with the combinatorial one (theorem-check mode), 2 on input
validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import adapted, oracle
from .adapted import SearchBudgetExceeded
from .irreps import DimensionBudgetExceeded
from .rootsys import RootSystemError, build_root_system
from .sphroots import root_name, spherical_root_catalog
from .wmonoid import NonDominantWeight, build_context

SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphmoduli",
        description="Tangent-space and adapted-root analysis of a free monoid of dominant weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="analyze one group and weight basis")
    an.add_argument("--group", required=True, help='Dynkin type string, e.g. "A1xA1" or "B3"')
    an.add_argument("--weights", required=True,
                    help='JSON list of weight vectors in fundamental coordinates, e.g. "[[2,0],[4,2]]"')
    an.add_argument("--json", action="store_true", help="emit a JSON report instead of text")
    an.add_argument("--oracle", action="store_true",
                    help="also recompute the tangent weights by linear algebra and compare")
    an.add_argument("--enumerate-subsets", action="store_true",
                    help="enumerate all N-adapted subsets and flag the maximal ones")
    an.add_argument("--max-subset-size", type=int, default=None)
    an.add_argument("--irrep-dim-cap", type=int, default=5000)
    return parser


# Built once at import: `main` runs once per analysis, by the thousand in a
# sweep of bases.
PARSER = build_parser()


def analyze(args) -> tuple:
    """Returns (report dict, exit status)."""
    try:
        rs = build_root_system(args.group)
    except RootSystemError as e:
        return {"error": f"bad group: {e}"}, 2
    try:
        weights = json.loads(args.weights)
    except (ValueError, RecursionError) as e:   # int-string limit, deep nesting
        return {"error": f"bad weights JSON: {e}"}, 2
    if not isinstance(weights, list) or not all(
        isinstance(w, list) and all(type(c) is int for c in w) for w in weights
    ):
        return {"error": "weights must be a JSON list of integer vectors"}, 2
    try:
        ctx = build_context(rs, [tuple(w) for w in weights])
    except NonDominantWeight as e:
        return {"error": f"weight #{e.index} is not dominant: {list(e.weight)}"}, 2
    except ValueError as e:
        return {"error": str(e)}, 2

    report = {
        "schema_version": SCHEMA_VERSION,
        "request": {
            "group": args.group,
            "weights": [list(w) for w in ctx.basis],
            "oracle": bool(args.oracle),
            "enumerate_subsets": bool(args.enumerate_subsets),
            "max_subset_size": args.max_subset_size if args.max_subset_size is not None else ctx.r,
            "irrep_dim_cap": args.irrep_dim_cap,
        },
        "rank": rs.rank,
        "sp_gamma": [root_name(rs.simple_roots[i]) for i in sorted(ctx.sp_gamma)],
        "e_gamma": [[str(v) for v in f] for f in ctx.dual_basis],
    }

    # Strict singleton verdicts: every catalog root not rejected is a weight.
    tangent = adapted.tangent_space(ctx)
    strict_failed = {r.coords: tag for r, tag in tangent.rejected}
    cat_entries = []
    for root in spherical_root_catalog(rs):
        a = adapted.is_adapted_singleton(ctx, root)
        cat_entries.append({
            "coords": list(root.coords),
            "name": root.name(),
            "kind": root.kind,
            "support": [i + 1 for i in sorted(root.support)],
            "adapted": a.ok,
            "adapted_failed": a.failed,
            "n_adapted": root.coords not in strict_failed,
            "n_adapted_failed": strict_failed.get(root.coords),
        })
    report["catalog"] = cat_entries
    report["tangent"] = {
        "dimension": tangent.dimension,
        "weights": [w.name() for w in tangent.weights],
        "coords": [list(w.coords) for w in tangent.weights],
    }

    status = 0
    if args.enumerate_subsets:
        records = None
        try:
            records = adapted.enumerate_n_adapted_subsets(ctx, max_size=args.max_subset_size)
        except SearchBudgetExceeded as e:
            records = e.partial
            report["subsets_error"] = str(e)
            status = 2
        except ValueError as e:
            report["subsets_error"] = str(e)
            status = 2
        if records is not None:
            report["subsets"] = [
                {
                    "roots": [r.name() for r in rec.roots],
                    "coords": [list(r.coords) for r in rec.roots],
                    "size": rec.dimension,
                    "maximal": rec.maximal,
                }
                for rec in records
            ]
    if args.oracle:
        try:
            orep = oracle.oracle_report(ctx, dim_cap=args.irrep_dim_cap)
        except DimensionBudgetExceeded as e:
            report["oracle_error"] = str(e)
            return report, 2
        agrees = (
            orep.weight_coords() == tangent.weight_coords()
            and all(d == 1 for d in orep.weights.values())
        )
        report["oracle"] = {
            "weights": [root_name(g) for g in sorted(orep.weights)],
            "coords": [list(g) for g in sorted(orep.weights)],
            "multiplicities": [orep.weights[g] for g in sorted(orep.weights)],
            "agrees": agrees,
        }
        if not agrees:
            status = 1
    return report, status


def render_text(report: dict) -> str:
    if "error" in report:
        return f"error: {report['error']}"
    lines = []
    req = report["request"]
    lines.append(f"group {req['group']}  rank {report['rank']}")
    lines.append(f"basis weights: {req['weights']}")
    lines.append(f"sp_gamma: {report['sp_gamma'] or '(empty)'}")
    lines.append("catalog:")
    for e in report["catalog"]:
        lines.append(
            f"  {e['name']:24s} [{e['kind']}]"
            f"  adapted={_verdict(e['adapted'], e['adapted_failed'])}"
            f"  n_adapted={_verdict(e['n_adapted'], e['n_adapted_failed'])}"
        )
    t = report["tangent"]
    lines.append(f"tangent dimension {t['dimension']}: {t['weights']}")
    if "subsets" in report:
        lines.append("n-adapted subsets:")
        for s in report["subsets"]:
            flag = "  (maximal, candidate component)" if s["maximal"] else ""
            lines.append(f"  size {s['size']}: {s['roots']}{flag}")
    if "subsets_error" in report:
        lines.append(f"subset enumeration aborted: {report['subsets_error']}")
    if "oracle" in report:
        o = report["oracle"]
        lines.append(f"oracle tangent weights: {o['weights']} agreement={o['agrees']}")
    if "oracle_error" in report:
        lines.append(f"oracle aborted: {report['oracle_error']}")
    return "\n".join(lines)


def _verdict(ok: bool, failed) -> str:
    return "yes" if ok else f"no({failed})"


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    report, status = analyze(args)
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
