"""Free monoids of dominant weights and their dual-side data.

A context holds a linearly independent family F of dominant weights.  The
monoid it generates is free, so the dual cone of the generated lattice has
the dual basis of F as its ray generators, and functionals are stored
simply by their value vectors on F.

When it is built, a context computes the data of each simple root a_i
that the subset decision reads: the coroot restricted to F and its half, the
color functionals, the two color tokens with their classes, and the
dual-cone data (rays and sign) of each token and coroot.  What is keyed by
roots, which a walk meets by the thousand, fills two memos lazily for the
context's lifetime: the lattice coefficients of each root vector and the
value of each token on each root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


class LatticeMembershipError(ValueError):
    pass


@dataclass(frozen=True)
class Functional:
    """A rational functional on the weight lattice spanned by F, stored by
    its values on the basis elements."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def __call__(self, coefficients: Sequence) -> Fraction:
        return sum((v * c for v, c in zip(self.values, coefficients)), Fraction(0))

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values)

    def __sub__(self, other: "Functional") -> "Functional":
        return Functional(tuple(a - b for a, b in zip(self.values, other.values)))

    def scaled(self, q) -> "Functional":
        q = Fraction(q)
        return Functional(tuple(q * v for v in self.values))


def _cone(f: Functional) -> tuple:
    """(rays, nonnegative) of f: the k for which f is a positive multiple of
    the k-th dual basis functional, that is, its only nonzero value is
    positive and sits at k; and whether f lies in the dual cone."""
    nonzero = [k for k, v in enumerate(f.values) if v]
    rays = frozenset(nonzero) if len(nonzero) == 1 and f.values[nonzero[0]] > 0 else frozenset()
    return rays, f.is_nonnegative()


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
        cols = [[Fraction(w[i]) for w in self.basis] for i in range(self.n)]
        if self.r and linalg.rank(cols) < self.r:
            raise DependentBasis("basis weights are linearly dependent over Q")
        self._cols = cols
        self._root_coeffs: dict = {}    # root vector -> lattice coefficients
        self._token_values: dict = {}   # (i, sign, root vector) -> value
        self.sp_gamma = frozenset(
            i for i in range(self.n) if all(w[i] == 0 for w in self.basis)
        )
        self.dual_basis = tuple(
            Functional(tuple(1 if j == k else 0 for j in range(self.r)))
            for k in range(self.r)
        )
        # <w, beta^v> is a sum of d_j beta_j w_j >= 0 for dominant w, so it
        # vanishes on F exactly when F vanishes on the support of beta.
        self.f_perp = tuple(
            beta for beta in positive_roots(rs) if support(beta) <= self.sp_gamma
        )

        # Simple-root data.  coroots[i] is the restriction of the i-th simple
        # coroot to F, half_coroots[i] the color of a doubled root 2a_i.
        self.coroots = tuple(Functional(tuple(w[i] for w in self.basis)) for i in range(self.n))
        self.half_coroots = tuple(f.scaled(Fraction(1, 2)) for f in self.coroots)
        # colors[i] is the tuple of color functionals of a_i, None off the lattice.
        self.colors = tuple(self._color_functionals(i) for i in range(self.n))
        # A simple member a_i of a root set carries two color tokens: (i, "+")
        # with the first and (i, "-") with the last of its color functionals.
        # Tokens share a class exactly when their functionals are equal.
        self.tokens: dict = {}          # (i, sign) -> functional
        self.token_classes: dict = {}   # (i, sign) -> class
        classes: dict = {}
        for i, colors in enumerate(self.colors):
            if colors:
                for sign, f in (("+", colors[0]), ("-", colors[-1])):
                    self.tokens[i, sign] = f
                    self.token_classes[i, sign] = classes.setdefault(f.values, len(classes))
        # Cone data of each token, and of the coroot of i under (i, None).
        self.cones = {(i, None): _cone(f) for i, f in enumerate(self.coroots)}
        self.cones.update((t, _cone(f)) for t, f in self.tokens.items())

    # -- lattice membership -------------------------------------------------

    def in_lattice(self, w: Weight) -> Optional[tuple]:
        """Integer coefficients c with sum(c_k * F_k) = w, or None."""
        sol = linalg.solve_unique(self._cols, list(w))
        if sol is None or any(x.denominator != 1 for x in sol):
            return None
        return tuple(int(x) for x in sol)

    def in_lattice_root(self, v: RootVector) -> Optional[tuple]:
        if v not in self._root_coeffs:
            self._root_coeffs[v] = self.in_lattice(self.rs.root_to_weight(v))
        return self._root_coeffs[v]

    # -- functionals ---------------------------------------------------------

    def _color_functionals(self, i: int) -> Optional[tuple]:
        coeffs = self.in_lattice_root(tuple(1 if j == i else 0 for j in range(self.n)))
        if coeffs is None:
            return None
        out = set()
        for k, c in enumerate(coeffs):
            if c == 1:
                out |= {self.dual_basis[k].values, (self.coroots[i] - self.dual_basis[k]).values}
        return tuple(Functional(values) for values in sorted(out))

    def color_functionals(self, i: int) -> tuple:
        """The functionals taking value 1 on the i-th simple root that are a
        dual-basis element or the coroot minus one.  These are the candidate
        color pairings attached to a simple spherical root."""
        colors = self.colors[i]
        if colors is None:
            raise LatticeMembershipError(
                f"simple root #{i} does not lie in the lattice generated by F"
            )
        return colors

    def token_value(self, i: int, sign: str, v: RootVector) -> Fraction:
        """Value of the token (i, sign) on the lattice coefficients of the
        root v, which must lie in the lattice."""
        key = (i, sign, v)
        value = self._token_values.get(key)
        if value is None:
            value = self._token_values[key] = self.tokens[i, sign](self.in_lattice_root(v))
        return value

    def __repr__(self):
        return f"WeightMonoidContext({self.rs.components}, F={list(self.basis)})"


def build_context(rs: RootSystem, basis: Sequence[Weight]) -> WeightMonoidContext:
    return WeightMonoidContext(rs, basis)
