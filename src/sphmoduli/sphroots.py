"""The finite catalog of spherically closed spherical roots.

Every catalog element is supported on a subdiagram of one of the rank-one
support shapes below, with fixed coefficients once the support is numbered
like Bourbaki.  Orthogonal pairs range over all pairs of orthogonal simple
roots, including pairs across product components.  Each catalog root
carries the two sandwich bounds of `compatible_with_sp`, computed once when
the catalog is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .rootsys import RootSystem, classify_component, positive_roots, support

KIND_SIMPLE = "A1"
KIND_DOUBLE = "2A1"
KIND_PAIR = "A1xA1"
KIND_AN_SUM = "An-sum"
KIND_A3_MIDDLE = "A3-middle"
KIND_BN_SUM = "Bn-sum"
KIND_BN_DOUBLE = "Bn-double"
KIND_B3_SPECIAL = "B3-special"
KIND_CN = "Cn"
KIND_DN = "Dn"
KIND_F4 = "F4"
KIND_G2_DOUBLE = "G2-double"
KIND_G2_SUM = "G2-sum"


def root_name(coords) -> str:
    """Name of a nonzero root-lattice vector, such as "a1+2*a3"."""
    return "+".join(
        f"a{i + 1}" if c == 1 else f"{c}*a{i + 1}" for i, c in enumerate(coords) if c
    )


@dataclass(frozen=True)
class SphericalRoot:
    coords: tuple            # simple-root coefficients, length = rank
    kind: str
    support: frozenset
    sp_lower: frozenset      # the sandwich bounds of `compatible_with_sp`
    sp_upper: frozenset

    @property
    def simple_index(self) -> int:
        """For kinds A1 and 2A1, the index of the underlying simple root."""
        (i,) = self.support
        return i

    def name(self) -> str:
        return root_name(self.coords)

    def __repr__(self):
        return f"SphericalRoot({self.name()!r}, {self.kind})"


def _patterns(typ: str, k: int):
    """Coefficient patterns (by Bourbaki position) admitted on one connected
    support of type `typ` and rank `k`."""
    if typ == "A":
        if k == 1:
            return [(KIND_SIMPLE, (1,)), (KIND_DOUBLE, (2,))]
        rows = [(KIND_AN_SUM, (1,) * k)]
        if k == 3:
            rows.append((KIND_A3_MIDDLE, (1, 2, 1)))
        return rows
    if typ == "B":
        rows = [(KIND_BN_SUM, (1,) * k), (KIND_BN_DOUBLE, (2,) * k)]
        if k == 3:
            rows.append((KIND_B3_SPECIAL, (1, 2, 3)))
        return rows
    if typ == "C":
        return [(KIND_CN, (1,) + (2,) * (k - 2) + (1,))]
    if typ == "D":
        return [(KIND_DN, (2,) * (k - 2) + (1, 1))]
    if typ == "F":
        return [(KIND_F4, (1, 2, 3, 2))]
    if typ == "G":
        return [(KIND_G2_DOUBLE, (4, 2)), (KIND_G2_SUM, (1, 1))]
    return []


@lru_cache(maxsize=None)
def spherical_root_catalog(rs: RootSystem) -> tuple:
    """All spherically closed spherical roots of the root system, sorted by
    coefficient vector; identical vectors arising from several labelings are
    emitted once."""
    n = rs.rank
    roots: dict = {}

    def emit(kind: str, labeling: tuple, pattern: tuple) -> None:
        coords = [0] * n
        for pos, coeff in enumerate(pattern):
            coords[labeling[pos]] = coeff
        key = tuple(coords)
        if key not in roots:
            # the simple roots pairing to zero with the root, globally and
            # inside its support; the B-type sum drops its short end node
            # from both, the C-type shape its first node from the lower one
            upper = frozenset(i for i, x in enumerate(rs.root_to_weight(key)) if x == 0)
            lower = upper & support(key)
            if kind == KIND_BN_SUM:
                lower, upper = lower - {labeling[-1]}, upper - {labeling[-1]}
            elif kind == KIND_CN:
                lower = lower - {labeling[0]}
            roots[key] = SphericalRoot(key, kind, support(key), lower, upper)

    for i in range(n):
        emit(KIND_SIMPLE, (i,), (1,))
        emit(KIND_DOUBLE, (i,), (2,))
    for i, j in combinations(range(n), 2):
        if not rs.cartan[i][j]:
            emit(KIND_PAIR, (i, j), (1, 1))
    # The connected supports of size >= 2 are those of the positive roots
    # with coefficients 0 and 1: a root has connected support, and the sum
    # over a connected set of simple roots is a root.
    for beta in positive_roots(rs):
        if max(beta) > 1 or sum(beta) < 2:
            continue
        comp = classify_component(rs, tuple(i for i, c in enumerate(beta) if c))
        for labeling in comp.labelings:
            for kind, pattern in _patterns(comp.dynkin_type, comp.rank):
                emit(kind, labeling, pattern)
    return tuple(sorted(roots.values(), key=lambda r: r.coords))


def compatible_with_sp(root: SphericalRoot, sp: Iterable[int]) -> bool:
    """Sandwich test: the simple roots pairing to zero with the root, inside
    the support on the left and globally on the right, must bound sp (see
    `spherical_root_catalog` for the two shapes that drop a node)."""
    return root.sp_lower <= frozenset(sp) <= root.sp_upper
