"""Lattice membership by an exact solve, the reference for the package's
`WeightMonoidContext.in_lattice`.

The weights of F are the columns of an n x r system over Fractions, solved
by Gauss-Jordan elimination (`linalg_reference.reference_solve_unique`) for
each weight on its own; the weight lies in the lattice when the solution
exists and is integral.  The package's left inverse must give the same
coefficient tuples and the same `None`s.
"""

from fractions import Fraction

from linalg_reference import reference_solve_unique


def reference_in_lattice(ctx, w):
    """Integer coefficients c with sum(c_k * F_k) = w, or None."""
    cols = [[Fraction(lam[i]) for lam in ctx.basis] for i in range(ctx.n)]
    sol = reference_solve_unique(cols, list(w))
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)
