"""Gauss-Jordan elimination over Fractions, the reference for the
package's fraction-free kernel.

Every pivot row is scaled to pivot 1 at once and every other row is
cleared with Fraction arithmetic.  The reduced form is unique, so the
package's `rref` and `nullspace` must return exactly what these return.
`reference_solve_unique` serves `wmonoid_reference` as the exact solve
behind lattice membership.  `reference_echelon` is the echelon form that
divides by the gcd after every step; the package's `Echelon` divides once
per kept row and must keep the same rows and pivots.
"""

from fractions import Fraction
from math import gcd, lcm


def reference_rref(m):
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(row) for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
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


def reference_rank(m):
    return len(reference_rref(m)[1])


def reference_solve_unique(a, b):
    """The unique x with a*x = b, None when inconsistent; ValueError when
    the columns of `a` are dependent."""
    cols = len(a[0]) if a else 0
    if cols == 0:
        return [] if all(x == 0 for x in b) else None
    red, pivots = reference_rref([list(row) + [Fraction(y)] for row, y in zip(a, b)])
    if cols in pivots:
        return None
    if len(pivots) != cols:
        raise ValueError("columns are linearly dependent")
    return [red[r][cols] for r in range(cols)]


def reference_nullspace(a, cols):
    """The basis of {x : a*x = 0} read off the reduced form: one vector per
    free column, 1 there and minus that column's pivot-row entries."""
    if cols == 0:
        return []
    red, pivots = reference_rref(a) if a else ([], [])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _primitive(v):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else list(v)


def reference_echelon(m):
    """(rows, pivots) of the echelon form grown one row at a time: each row
    scaled to a primitive integer row, reduced by the kept rows in the
    order they were kept, every combination divided by the gcd of its
    entries at once, and kept with its first nonzero column as pivot when
    it does not vanish."""
    rows, pivots = [], []
    for v in m:
        v = [Fraction(x) for x in v]
        d = lcm(*(x.denominator for x in v))
        v = _primitive([x.numerator * (d // x.denominator) for x in v])
        for row, pc in zip(rows, pivots):
            if v[pc]:
                g = gcd(row[pc], v[pc])
                v = _primitive([row[pc] // g * a - v[pc] // g * b for a, b in zip(v, row)])
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is not None:
            rows.append(v)
            pivots.append(pivot)
    return rows, pivots
