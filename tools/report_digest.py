"""One digest of every `analyze` report on a fixed set of cases.

    python3 tools/report_digest.py SOURCE_ROOT

imports `sphmoduli` from SOURCE_ROOT/src and runs `cli.main` in process, in
`--json` and in text mode, on every case of the three workloads of
`perfbench/corpus.py` (taken from the checkout that holds this script, so two
source roots are compared on the same cases) plus a few extra contexts.  It
prints the number of reports and one sha256 over each report's standard
output, standard error and exit status.  Two source roots with the same
count and hash produced byte-identical reports.

A second line digests the subset decisions themselves: `is_adapted_subset`
(`ok`, `verdicts`) and `is_n_adapted_subset` (`ok`, `witness`) on
every catalog subset of size at most 3, for every independent basis (the
empty one included) of the small grids in `DECISION_GRIDS`.

A third line digests the irreducible modules of `MODULES`: `weights`,
`depths`, `lower` and `raise_`, with every coefficient written as
`str(Fraction(c))`, so an int and an equal Fraction digest alike.

A fourth line digests the root operators on the same modules: the column
`mod.column(build_chevalley(rs), root, idx)` for every root (the positive
roots and their negatives, sorted) and every basis vector, the non-simple
ones built from the bracket decomposition, written the same way.  The tool
reads nothing of what `build_chevalley` returns but passes it on.

A fifth line digests the subset walk: the records of
`enumerate_n_adapted_subsets` (the root vectors of each accepted set and its
`maximal` flag) on every context of `DECISION_GRIDS`, with the number of
records.  The first line covers the walk only on the benchmark corpora.
Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# (group, weights, flags) beyond the benchmark corpora: deep groups on the
# oracle, the oracle and the walk together, the zero lattice, module
# dimension caps that refuse (G2 2w1 + w2 where the oracle builds no
# module), and the catalogs of long chains and of the D fork at large rank.
EXTRA_CASES = (
    ("E6", [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0]], ("--oracle",)),
    ("B3", [[1, 1, 1]], ("--oracle",)),
    ("D4", [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ("--oracle",)),
    ("C3", [[0, 2, 0], [1, 0, 1]], ("--oracle",)),
    ("G2", [[1, 1]], ("--oracle",)),
    ("E7", [[0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0]], ("--oracle",)),
    ("E8", [[0, 0, 0, 0, 0, 0, 0, 1]], ("--oracle",)),
    ("F4", [[0, 0, 1, 0]], ("--oracle",)),
    ("A3", [[1, 0, 0], [1, 1, 0], [1, 1, 1]], ("--oracle", "--enumerate-subsets")),
    ("A2", [], ("--oracle",)),
    ("B2", [[2, 0]], ("--oracle", "--irrep-dim-cap", "3")),
    ("G2", [[2, 1]], ("--oracle", "--irrep-dim-cap", "100")),
    ("A30", [], ()), ("A50", [], ()), ("D30", [], ()), ("B20", [], ()), ("C20", [], ()),
)

# (group, largest basis coordinate) of the decision digest.
DECISION_GRIDS = (
    ("A1", 6),
    ("A1xA1", 3), ("A2", 3), ("B2", 3), ("G2", 3),
    ("A3", 1), ("B3", 1), ("C3", 1), ("A2xA1", 1),
)

# (group, highest weight) of the module digest: weight multiplicities up to
# 9, every simple type but E8, and a product.
MODULES = (
    ("A1", (6,)), ("A1xA1", (2, 3)), ("A2", (2, 3)), ("A3", (1, 0, 1)),
    ("G2", (1, 1)), ("G2", (2, 1)), ("B3", (1, 1, 0)), ("B3", (1, 1, 1)),
    ("C3", (0, 2, 0)), ("D4", (1, 0, 1, 1)), ("B4", (1, 0, 0, 1)),
    ("F4", (0, 0, 0, 1)), ("F4", (1, 0, 0, 0)), ("E6", (1, 0, 0, 0, 0, 0)),
    ("E7", (0, 0, 0, 0, 0, 0, 1)),
)


def cases() -> list:
    """argv of every case, without the output mode."""
    sys.path.insert(0, str(HERE / "perfbench"))
    import corpus
    out = []
    for name in ("subsets", "oracle", "sweep"):
        for case in corpus.WORKLOADS[name]():
            out.append([a for a in case.argv() if a != "--json"])
    for group, weights, flags in EXTRA_CASES:
        out.append(["analyze", "--group", group, "--weights", json.dumps(weights), *flags])
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/report_digest.py SOURCE_ROOT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(args[0]).resolve() / "src"))
    from sphmoduli import cli

    digest = hashlib.sha256()
    count = 0
    for base in cases():
        for mode in (["--json"], []):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = cli.main(base + mode)
                except SystemExit as exc:
                    status = exc.code
            for part in (" ".join(base + mode), out.getvalue(), err.getvalue(), str(status)):
                digest.update(part.encode())
                digest.update(b"\0")
            count += 1
    print(f"reports {count} sha256 {digest.hexdigest()}")
    print(decision_digest())
    print(module_digest())
    print(column_digest())
    print(walk_digest())
    return 0


def grid_contexts():
    """(group, basis, context) for every independent basis (the empty one
    included) of `DECISION_GRIDS`, each context built afresh."""
    import sphmoduli as sm

    for group, max_coord in DECISION_GRIDS:
        rs = sm.build_root_system(group)
        vectors = [v for v in product(range(max_coord + 1), repeat=rs.rank) if any(v)]
        for basis in (b for r in range(rs.rank + 1) for b in combinations(vectors, r)):
            try:
                ctx = sm.build_context(rs, list(basis))
            except ValueError:
                continue
            yield group, basis, ctx


def decision_digest() -> str:
    """Count and sha256 of the subset decisions on `DECISION_GRIDS`."""
    import sphmoduli as sm

    digest = hashlib.sha256()
    count = 0
    for group, basis, ctx in grid_contexts():
        catalog = sm.spherical_root_catalog(ctx.rs)
        for sigma in (s for size in range(4) for s in combinations(catalog, size)):
            check = sm.is_adapted_subset(ctx, sigma)
            n_check = sm.is_n_adapted_subset(ctx, sigma)
            witness = n_check.witness and [r.coords for r in n_check.witness]
            record = (group, basis, [r.coords for r in sigma], check.ok,
                      check.verdicts, n_check.ok, witness)
            digest.update(repr(record).encode())
            digest.update(b"\0")
            count += 1
    return f"decisions {count} sha256 {digest.hexdigest()}"


def walk_digest() -> str:
    """Count and sha256 of the subset walk's records on `DECISION_GRIDS`."""
    import sphmoduli as sm

    digest = hashlib.sha256()
    count = 0
    for group, basis, ctx in grid_contexts():
        records = [([r.coords for r in rec.roots], rec.maximal)
                   for rec in sm.enumerate_n_adapted_subsets(ctx)]
        digest.update(repr((group, basis, records)).encode())
        digest.update(b"\0")
        count += len(records)
    return f"walk {count} sha256 {digest.hexdigest()}"


def module_digest() -> str:
    """Count and sha256 of the module data on `MODULES`."""
    import sphmoduli as sm

    def table(combos: dict) -> list:
        return [(key, [(t, str(Fraction(c))) for t, c in combos[key]]) for key in sorted(combos)]

    digest = hashlib.sha256()
    for group, lam in MODULES:
        mod = sm.build_irrep(sm.build_root_system(group), lam)
        record = (group, lam, mod.weights, mod.depths, [table(t) for t in mod.lower],
                  [table(t) for t in mod.raise_])
        digest.update(repr(record).encode())
        digest.update(b"\0")
    return f"modules {len(MODULES)} sha256 {digest.hexdigest()}"


def column_digest() -> str:
    """Count and sha256 of the root-operator columns on `MODULES`."""
    import sphmoduli as sm

    digest = hashlib.sha256()
    count = 0
    for group, lam in MODULES:
        rs = sm.build_root_system(group)
        decomposition = sm.build_chevalley(rs)
        mod = sm.build_irrep(rs, lam)
        pos = sm.positive_roots(rs)
        for root in sorted(pos + tuple(tuple(-c for c in r) for r in pos)):
            for idx in range(mod.dim):
                col = [(t, str(Fraction(c))) for t, c in mod.column(decomposition, root, idx)]
                digest.update(repr((group, lam, root, idx, col)).encode())
                digest.update(b"\0")
                count += 1
    return f"columns {count} sha256 {digest.hexdigest()}"


if __name__ == "__main__":
    sys.exit(main())
