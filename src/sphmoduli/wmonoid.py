"""Free monoids of dominant weights and their dual-side data.

A context holds a linearly independent family F of dominant weights.  The
monoid it generates is free, so the dual cone of the generated lattice has
the dual basis of F as its ray generators.  A functional on the lattice is
the tuple of its integer values on F, and it is evaluated on lattice
coefficients by a dot product.

Lattice membership needs no elimination per weight.  When it is built, a
context reduces [B | I_n] once, B the n x r matrix with the weights of F as
columns, and keeps the right block E, with E.B = [I_r; 0], as integer rows
over one denominator d, each row kept as its nonzero entries.  A weight w
is in the lattice exactly when the last n - r rows of d.E vanish on it and
the first r are divisible by d; the quotients are its coefficients.

When it is built, a context also computes the data of each simple root a_i
that the subset decision reads: the coroot restricted to F, the color
functionals, and the dual-cone data (rays and sign) of each coroot and
color functional, keyed by the functional.  What is keyed by roots, which
a walk meets by the thousand, fills two memos lazily for the context's
lifetime: the lattice coefficients of each root vector, and what the
subset decisions read of each root (`adapted._member_facts`).
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from . import linalg
from .rootsys import RootSystem, RootVector, Weight, is_dominant, positive_roots, support


class NonDominantWeight(ValueError):
    def __init__(self, index: int, weight):
        self.index = index
        self.weight = weight
        super().__init__(f"basis weight #{index} is not dominant: {weight}")


class DependentBasis(ValueError):
    pass


def _cone(f: tuple) -> tuple:
    """(rays, nonnegative) of the functional with values f on F: the k for
    which f is a positive multiple of the k-th dual basis functional, that
    is, its only nonzero value is positive and sits at k; and whether f lies
    in the dual cone."""
    nonzero = [k for k, v in enumerate(f) if v]
    rays = frozenset(nonzero) if len(nonzero) == 1 and f[nonzero[0]] > 0 else frozenset()
    return rays, all(v >= 0 for v in f)


class WeightMonoidContext:
    """Immutable bundle: root system, free basis F, the data of each simple
    root, and the two memos of the subset decision."""

    def __init__(self, rs: RootSystem, basis: Sequence[Weight]):
        self.rs = rs
        self.basis = tuple(tuple(int(c) for c in w) for w in basis)
        self.n = rs.rank
        self.r = len(self.basis)
        for k, w in enumerate(self.basis):
            if len(w) != self.n:
                raise ValueError(f"basis weight #{k} has length {len(w)}, expected {self.n}")
            if not is_dominant(w):
                raise NonDominantWeight(k, w)
        # One reduction of [B | I_n], B the n x r matrix with the weights of F
        # as columns, gives E (its right block) with E.B = [I_r; 0]; F is
        # independent exactly when the first r columns are pivots.
        red, pivots = linalg.rref([[w[i] for w in self.basis] + [int(j == i) for j in range(self.n)]
                                   for i in range(self.n)])
        if pivots[:self.r] != list(range(self.r)):
            raise DependentBasis("basis weights are linearly dependent over Q")
        # d.E as integer rows, each the (j, entry) pairs of its nonzero entries
        self._denominator = d = lcm(*(x.denominator for row in red for x in row[self.r:]))
        self._inverse = tuple(tuple((j, x.numerator * (d // x.denominator))
                                    for j, x in enumerate(row[self.r:]) if x)
                              for row in red)
        self._root_coeffs: dict = {}    # root vector -> lattice coefficients
        self._member_facts: dict = {}   # root vector -> adapted._member_facts
        self.sp_gamma = frozenset(
            i for i in range(self.n) if all(w[i] == 0 for w in self.basis)
        )
        self.dual_basis = tuple(tuple(int(j == k) for j in range(self.r)) for k in range(self.r))
        # <w, beta^v> is a sum of d_j beta_j w_j >= 0 for dominant w, so it
        # vanishes on F exactly when F vanishes on the support of beta.
        self.f_perp = tuple(
            beta for beta in positive_roots(rs) if support(beta) <= self.sp_gamma
        )

        # Simple-root data.  coroots[i] is the restriction of the i-th simple
        # coroot to F.
        self.coroots = tuple(tuple(w[i] for w in self.basis) for i in range(self.n))
        # colors[i] is the tuple of color functionals of a_i, None off the lattice.
        self.colors = tuple(self._color_functionals(i) for i in range(self.n))
        # Cone data of every coroot and color functional, keyed by the functional.
        self.cones = {f: _cone(f) for f in self.coroots}
        self.cones.update((f, _cone(f)) for colors in self.colors if colors for f in colors)

    # -- lattice membership -------------------------------------------------

    def in_lattice(self, w: Weight) -> Optional[tuple]:
        """Integer coefficients c with sum(c_k * F_k) = w, or None.  As
        E.B = [I_r; 0], w = B.c exactly when (d.E).w vanishes below row r
        and d.c_k = (d.E).w for k < r; the first row that fails decides."""
        if len(w) != self.n:
            raise ValueError(f"weight {tuple(w)} has length {len(w)}, expected {self.n}")
        d, r = self._denominator, self.r
        if any(sum(a * w[j] for j, a in row) for row in self._inverse[r:]):
            return None
        coeffs = []
        for row in self._inverse[:r]:
            q, rem = divmod(sum(a * w[j] for j, a in row), d)
            if rem:
                return None
            coeffs.append(q)
        return tuple(coeffs)

    def in_lattice_root(self, v: RootVector) -> Optional[tuple]:
        if v not in self._root_coeffs:
            self._root_coeffs[v] = self.in_lattice(self.rs.root_to_weight(v))
        return self._root_coeffs[v]

    # -- functionals ---------------------------------------------------------

    def _color_functionals(self, i: int) -> Optional[tuple]:
        """The functionals taking value 1 on the i-th simple root that are a
        dual-basis element or the coroot minus one, or None when the root
        lies outside the lattice.  These are the candidate color pairings
        attached to a simple spherical root."""
        coeffs = self.in_lattice_root(self.rs.simple_roots[i])
        if coeffs is None:
            return None
        out = set()
        for k, c in enumerate(coeffs):
            if c == 1:
                e = self.dual_basis[k]
                out |= {e, tuple(a - b for a, b in zip(self.coroots[i], e))}
        return tuple(sorted(out))

    def __repr__(self):
        return f"WeightMonoidContext({self.rs.components}, F={list(self.basis)})"


def build_context(rs: RootSystem, basis: Sequence[Weight]) -> WeightMonoidContext:
    return WeightMonoidContext(rs, basis)
