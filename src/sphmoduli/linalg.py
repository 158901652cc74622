"""Exact linear algebra over the rationals.

Matrices are lists of rows, entries are Fractions.  Everything here is
deterministic and allocation-happy; sizes stay small (a few hundred rows
at most), so clarity wins over cleverness.  There are two kernels: `rref`
for solves, kernels and intersections, and the incremental `Echelon` for
rank and independence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vec = list
Mat = list


def zeros(n: int) -> Vec:
    return [Fraction(0)] * n


class Echelon:
    """Rows in echelon form, grown one vector at a time.  Each kept row has
    pivot entry 1 and is zero at the pivots of the rows kept before it."""

    def __init__(self, rows: Sequence[Sequence] = ()):
        self.rows: list = []
        self.pivots: list = []
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, v: Sequence) -> bool:
        """Keep `v` when it is independent of the rows so far; report that."""
        v = list(v)
        for row, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = Fraction(1) / v[pivot]
        self.rows.append([x * inv for x in v])
        self.pivots.append(pivot)
        return True

    def copy(self) -> "Echelon":
        other = Echelon()
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        return other


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(m: Mat) -> int:
    return len(Echelon(m))


def solve_unique(a: Mat, b: Sequence) -> Optional[Vec]:
    """Solve a*x = b when the columns of `a` are independent.

    Returns the unique solution, or None when the system is inconsistent.
    Raises ValueError if the columns are dependent (no unique solution).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return [] if all(x == 0 for x in b) else None
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    if len(pivots) != cols:
        raise ValueError("columns are linearly dependent")
    x = zeros(cols)
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def nullspace(a: Mat, cols: int) -> list[Vec]:
    """Basis of {x : a*x = 0}, for `a` with `cols` columns."""
    if cols == 0:
        return []
    if not a:
        basis = []
        for j in range(cols):
            v = zeros(cols)
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = zeros(cols)
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def span_intersection(a_basis: list[Vec], b_basis: list[Vec]) -> list[Vec]:
    """Basis of span(a) n span(b); all vectors of equal length."""
    if not a_basis or not b_basis:
        return []
    dim = len(a_basis[0])
    # Columns are [a1..ap | b1..bq]; kernel elements give intersection vectors.
    cols = len(a_basis) + len(b_basis)
    m = []
    for i in range(dim):
        m.append([a_basis[k][i] for k in range(len(a_basis))]
                 + [-b_basis[k][i] for k in range(len(b_basis))])
    result = []
    for ker in nullspace(m, cols):
        v = zeros(dim)
        for k, coeff in enumerate(ker[: len(a_basis)]):
            if coeff:
                v = [x + coeff * y for x, y in zip(v, a_basis[k])]
        if any(x != 0 for x in v):
            result.append(v)
    return independent_subset(result)


def independent_subset(vectors: list[Vec]) -> list[Vec]:
    """Greedy maximal independent sublist, preserving order."""
    return reduce_mod([], vectors)


def reduce_mod(basis: list[Vec], vectors: list[Vec]) -> list[Vec]:
    """Sublist of `vectors` independent modulo span(basis)."""
    ech = Echelon(basis)
    return [v for v in vectors if ech.add(v)]
