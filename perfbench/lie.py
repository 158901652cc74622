"""Root-system data computed apart from the program under test.

Simple roots are realised as explicit Euclidean vectors, as in Bourbaki's
plates; the Cartan matrix, the positive roots (as the Weyl orbit of the
simple roots) and Weyl's dimension formula all follow from those vectors.
None of this imports `sphmoduli`, so the checks built on it are
independent of the program's own root-system code.
"""

from __future__ import annotations

import re
from fractions import Fraction

HALF = Fraction(1, 2)


def _unit(n: int, i: int, c=1) -> list:
    v = [Fraction(0)] * n
    v[i] = Fraction(c)
    return v


def _diff(n: int, i: int, j: int) -> list:
    """e_i - e_j."""
    v = _unit(n, i)
    v[j] -= 1
    return v


def _simple_roots(typ: str, rank: int) -> list:
    """Bourbaki realisation of the simple roots of one simple type."""
    if typ == "A":
        return [_diff(rank + 1, i, i + 1) for i in range(rank)]
    chain = [_diff(rank, i, i + 1) for i in range(rank - 1)]
    if typ == "B":
        return chain + [_unit(rank, rank - 1)]
    if typ == "C":
        return chain + [_unit(rank, rank - 1, 2)]
    if typ == "D":
        last = _unit(rank, rank - 2)
        last[rank - 1] = Fraction(1)
        return chain + [last]
    if typ == "G":
        return [[Fraction(1), Fraction(-1), Fraction(0)],
                [Fraction(-2), Fraction(1), Fraction(1)]]
    if typ == "F":
        return [_diff(4, 1, 2), _diff(4, 2, 3), _unit(4, 3),
                [HALF, -HALF, -HALF, -HALF]]
    if typ == "E":
        first = [HALF] + [-HALF] * 6 + [HALF]
        second = _unit(8, 0)
        second[1] = Fraction(1)
        rest = [_diff(8, 1, 0)] + [_diff(8, i + 1, i) for i in range(1, 6)]
        return ([first, second] + rest)[:rank]
    raise ValueError(f"unknown type {typ!r}")


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


class Group:
    """A product of simple types, with components in input order."""

    def __init__(self, type_string: str):
        self.name = type_string
        self.components = [
            (m.group(1), int(m.group(2)))
            for m in (re.fullmatch(r"([A-G])(\d+)", t) for t in type_string.split("x"))
        ]
        gram_blocks = []
        for typ, rank in self.components:
            roots = _simple_roots(typ, rank)
            gram_blocks.append([[_dot(a, b) for b in roots] for a in roots])
        n = sum(rank for _, rank in self.components)
        gram = [[Fraction(0)] * n for _ in range(n)]
        off = 0
        for block in gram_blocks:
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    gram[off + i][off + j] = x
            off += len(block)
        self.rank = n
        self.gram = gram
        # cartan[i][j] = <a_i^v, a_j> = 2 (a_i, a_j) / (a_i, a_i)
        self.cartan = [[int(2 * gram[i][j] / gram[i][i]) for j in range(n)] for i in range(n)]
        self.positive_roots = self._positive_roots()

    def _positive_roots(self) -> list:
        n = self.rank
        simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(n):
                    k = self.pairing(i, beta)
                    image = tuple(b - k * (1 if j == i else 0) for j, b in enumerate(beta))
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        return sorted(r for r in seen if all(c >= 0 for c in r))

    def pairing(self, i: int, root: tuple) -> int:
        """<a_i^v, root> for a root in simple-root coordinates."""
        return sum(self.cartan[i][j] * c for j, c in enumerate(root))

    def root_to_weight(self, root: tuple) -> tuple:
        return tuple(self.pairing(i, root) for i in range(self.rank))

    def weyl_dimension(self, lam) -> int:
        """prod over positive roots b of (lam + rho, b) / (rho, b)."""
        half_norm = [self.gram[j][j] / 2 for j in range(self.rank)]
        dim = Fraction(1)
        for beta in self.positive_roots:
            num = sum(c * half_norm[j] * (lam[j] + 1) for j, c in enumerate(beta))
            den = sum(c * half_norm[j] for j, c in enumerate(beta))
            dim *= num / den
        if dim.denominator != 1:
            raise ArithmeticError(f"non-integral Weyl dimension {dim} for {lam}")
        return int(dim)


def _reduce(rows: list, ncols: int) -> list:
    """Bring `rows` to reduced row echelon form in place; returns the pivot
    columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def rank(vectors) -> int:
    """Exact rank of a list of rational vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    return len(_reduce(rows, len(rows[0]) if rows else 0))


def in_integer_span(basis, target) -> bool:
    """Is `target` an integer combination of the independent vectors `basis`?"""
    if not basis:
        return all(x == 0 for x in target)
    k = len(basis)
    # Augmented system sum_j c_j basis[j] = target; column k is the target.
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(t)] for i, t in enumerate(target)]
    pivots = _reduce(rows, k + 1)
    if k in pivots:
        return False            # target lies outside the rational span
    return all(rows[p][k].denominator == 1 for p in range(len(pivots)))
