"""Two-route agreement over grids of contexts.

    python3 tools/agreement_sweep.py SOURCE_ROOT

imports `sphmoduli` from SOURCE_ROOT/src and, for every independent basis
(of one or more weights) over the coordinates of `GRIDS`, compares the
tangent weights of the combinatorial route (`tangent_space`) with those of
the representation route (`oracle_report`).  A basis with a module above
`DIM_CAP` is skipped; `oracle_report` refuses it by its Weyl dimension,
before it builds anything.  Two lines, in the form of
`tools/report_digest.py`:

    contexts N sha256 H
    disagreements D sha256 H'

N counts the compared contexts, and H is a sha256 over (group, basis,
tangent weights) of each of them, in grid order.  D counts the contexts
where the two routes differ, and H' is a sha256 over (group, basis,
tangent weights, oracle weights) of each of those, which are also written
to standard error.  The exit status is 1 when D > 0.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import combinations, product
from pathlib import Path

# (group, largest basis coordinate), by rank.
GRIDS = (
    ("A1", 6),
    ("A1xA1", 3), ("A2", 3), ("B2", 3), ("G2", 3),
    ("A1xA1xA1", 2), ("A2xA1", 2), ("A3", 2), ("B3", 2), ("C3", 2),
    ("A1xA1xA1xA1", 1), ("A2xA1xA1", 1), ("A2xA2", 1), ("A3xA1", 1), ("B2xA1xA1", 1),
    ("A4", 1), ("B4", 1), ("C4", 1), ("D4", 1), ("F4", 1),
)
DIM_CAP = 300


def sweep(max_rank: int = 4) -> tuple:
    """(number of contexts, sha256 hex, disagreeing records) over the grids
    of rank at most max_rank."""
    import sphmoduli as sm

    digest = hashlib.sha256()
    count = 0
    disagreements = []
    for group, max_coord in GRIDS:
        rs = sm.build_root_system(group)
        if rs.rank > max_rank:
            continue
        vectors = [v for v in product(range(max_coord + 1), repeat=rs.rank) if any(v)]
        for basis in (b for r in range(1, rs.rank + 1) for b in combinations(vectors, r)):
            try:
                ctx = sm.build_context(rs, list(basis))
                oracle = sorted(sm.oracle_report(ctx, dim_cap=DIM_CAP).weights)
            except (sm.DependentBasis, sm.DimensionBudgetExceeded):
                continue
            tangent = sorted(sm.tangent_space(ctx).weight_coords())
            digest.update(repr((group, basis, tangent)).encode())
            digest.update(b"\0")
            count += 1
            if oracle != tangent:
                disagreements.append((group, basis, tangent, oracle))
    return count, digest.hexdigest(), disagreements


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/agreement_sweep.py SOURCE_ROOT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(args[0]).resolve() / "src"))
    count, hexdigest, disagreements = sweep()
    bad = hashlib.sha256()
    for record in disagreements:
        print(f"disagreement: {record}", file=sys.stderr)
        bad.update(repr(record).encode())
        bad.update(b"\0")
    print(f"contexts {count} sha256 {hexdigest}")
    print(f"disagreements {len(disagreements)} sha256 {bad.hexdigest()}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
