"""The rank-one grid shared by the closed-form and the oracle tests: every
nonzero dominant weight lambda with coordinates up to 3 on ranks 1 and 2, up
to 2 on ranks 3 and 4, and 0 or 1 above; 1,002 weights over 16 types."""

from itertools import product

from sphmoduli import build_root_system


def rank_one_bases():
    """(root system, lambda) for every weight of the grid."""
    groups = {3: ("A1", "A2", "B2", "G2"), 2: ("A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"),
              1: ("A5", "E6", "E7", "E8")}
    for top, names in groups.items():
        for name in names:
            rs = build_root_system(name)
            for lam in product(range(top + 1), repeat=rs.rank):
                if any(lam):
                    yield rs, lam
