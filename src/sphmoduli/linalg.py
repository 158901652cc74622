"""Exact linear algebra over the rationals.

Matrices are lists of rows whose entries are ints or Fractions.  One
number policy holds here and in `irreps` and `oracle`: a value stays an
int unless a division leaves a remainder, and only then is it a Fraction
(`quotient`).  There is one elimination kernel, the incremental
`Echelon`, and it is fraction-free: every row is first scaled by the lcm
of its denominators to an integer row (a row of ints skips that pass),
rows are combined by cross-multiplication, and a kept row is divided by
the gcd of its entries once, when it is kept.  Every row reached on the
way is a positive multiple of the one that dividing after each step would
reach, so the kept rows are the same primitive rows.  `Echelon` serves
rank and independence.  `rref` finishes an `Echelon` of its rows by
back-substitution and divides by its pivots only at the end, so it
returns the same values as Gauss-Jordan over the rationals (the reduced
form is unique); it serves kernels and intersections.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = list
Mat = list


def quotient(x, d: int):
    """x / d for an int or Fraction x and a nonzero int d: an int when the
    division leaves no remainder, else a Fraction."""
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def _divide_gcd(row: Sequence) -> list:
    """An integer row divided by the gcd of its entries, as a new list (a
    zero row stays zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _integral_row(v: Sequence) -> list:
    """`v` scaled by the lcm of its denominators to an integer row."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v]


def _eliminate(v: list, row: list, c: int) -> list:
    """Primitive combination of `v` and `row` that is zero in column c,
    where row[c] != 0."""
    g = gcd(row[c], v[c])
    p, f = row[c] // g, v[c] // g
    return _divide_gcd([p * a - f * b for a, b in zip(v, row)])


class Echelon:
    """Primitive integer rows in echelon form, grown one vector at a time.
    Each kept row is zero at the pivots of the rows kept before it."""

    def __init__(self, rows: Sequence[Sequence] = ()):
        self.rows: list = []
        self.pivots: list = []
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, v: Sequence) -> bool:
        """Keep `v` when it is independent of the rows so far; report that.
        A row of ints skips the denominator pass, and once the rows span
        every column nothing more is kept."""
        if len(self.rows) == len(v):
            return False
        if not all(type(x) is int for x in v):
            v = _integral_row(v)
        for row, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if f:
                p = row[pc]
                g = gcd(p, f)
                p //= g
                f //= g
                v = [p * a - f * b for a, b in zip(v, row)]
        for pivot, x in enumerate(v):
            if x:
                self.rows.append(_divide_gcd(v))
                self.pivots.append(pivot)
                return True
        return False

    def copy(self) -> "Echelon":
        other = Echelon()
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        return other


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices),
    its entries ints where the pivot divides them and Fractions otherwise.
    The kept rows of an `Echelon` of `m`, sorted by pivot, are upper
    triangular; each pivot column is cleared from the rows above it,
    from right to left, and every row is divided by its pivot."""
    ech = Echelon(m)
    cols = len(m[0]) if m else 0
    order = sorted(range(len(ech)), key=ech.pivots.__getitem__)
    rows = [ech.rows[k] for k in order]
    pivots = [ech.pivots[k] for k in order]
    for r in reversed(range(len(rows))):
        pc = pivots[r]
        for i in range(r):
            if rows[i][pc]:
                rows[i] = _eliminate(rows[i], rows[r], pc)
    out = [row if row[c] == 1 else [quotient(x, row[c]) for x in row]
           for row, c in zip(rows, pivots)]
    out += [[0] * cols for _ in range(len(m) - len(rows))]
    return out, pivots


def nullspace(a: Mat, cols: int) -> list[Vec]:
    """Basis of {x : a*x = 0}, for `a` with `cols` columns."""
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def span_intersection(a_basis: list[Vec], b_basis: list[Vec]) -> list[Vec]:
    """Basis of span(a) n span(b), as primitive integer rows; all vectors
    of equal length."""
    if not a_basis or not b_basis:
        return []
    dim = len(a_basis[0])
    # Columns are [a1..ap | b1..bq]; kernel elements give intersection vectors.
    m = [[a[i] for a in a_basis] + [-b[i] for b in b_basis] for i in range(dim)]
    ech = Echelon()
    for ker in nullspace(m, len(a_basis) + len(b_basis)):
        ech.add([sum(c * a[i] for c, a in zip(ker, a_basis)) for i in range(dim)])
    return ech.rows


def reduce_mod(basis: list[Vec], vectors: list[Vec]) -> list[Vec]:
    """Sublist of `vectors` independent modulo span(basis)."""
    ech = Echelon(basis)
    return [v for v in vectors if ech.add(v)]
