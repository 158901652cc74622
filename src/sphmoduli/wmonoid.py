"""Free monoids of dominant weights and their dual-side data.

A context holds a linearly independent family F of dominant weights.  The
monoid it generates is free, so the dual cone of the generated lattice has
the dual basis of F as its ray generators, and functionals are stored
simply by their value vectors on F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .rootsys import RootSystem, RootVector, Weight, is_dominant, positive_roots


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

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(tuple(a + b for a, b in zip(self.values, other.values)))

    def scaled(self, q) -> "Functional":
        q = Fraction(q)
        return Functional(tuple(q * v for v in self.values))

    def positive_multiple_of(self, other: "Functional") -> bool:
        """True when self = q * other for some rational q > 0."""
        q = None
        for a, b in zip(self.values, other.values):
            if b == 0:
                if a != 0:
                    return False
            else:
                r = a / b
                if q is None:
                    q = r
                elif r != q:
                    return False
        if q is None:  # other == 0
            return all(a == 0 for a in self.values)
        return q > 0


class WeightMonoidContext:
    """Immutable bundle: root system, free basis F, and derived constants."""

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
        self._memo: dict = {}
        self.sp_gamma = frozenset(
            i for i in range(self.n) if all(w[i] == 0 for w in self.basis)
        )
        self.dual_basis = tuple(
            Functional(tuple(1 if j == k else 0 for j in range(self.r)))
            for k in range(self.r)
        )
        self.f_perp = tuple(
            beta for beta in positive_roots(rs)
            if all(rs.coroot_weight_pairing(beta, w) == 0 for w in self.basis)
        )

    # -- lattice membership -------------------------------------------------

    def in_lattice(self, w: Weight) -> Optional[tuple]:
        """Integer coefficients c with sum(c_k * F_k) = w, or None."""
        w = tuple(w)
        if w in self._memo:
            return self._memo[w]
        if self.r == 0:
            result = () if all(x == 0 for x in w) else None
        else:
            sol = linalg.solve_unique(self._cols, list(w))
            if sol is None or any(x.denominator != 1 for x in sol):
                result = None
            else:
                result = tuple(int(x) for x in sol)
        self._memo[w] = result
        return result

    def in_lattice_root(self, v: RootVector) -> Optional[tuple]:
        return self.in_lattice(self.rs.root_to_weight(v))

    # -- functionals ---------------------------------------------------------

    def coroot_functional(self, i: int) -> Functional:
        """Restriction of the i-th simple coroot to the basis F."""
        return Functional(tuple(w[i] for w in self.basis))

    def color_functionals(self, i: int) -> list:
        """The functionals taking value 1 on the i-th simple root that are a
        dual-basis element or the coroot minus one.  These are the candidate
        color pairings attached to a simple spherical root."""
        coeffs = self.in_lattice_root(tuple(1 if j == i else 0 for j in range(self.n)))
        if coeffs is None:
            raise LatticeMembershipError(
                f"simple root #{i} does not lie in the lattice generated by F"
            )
        coroot = self.coroot_functional(i)
        out = []
        for k, c in enumerate(coeffs):
            if c == 1:
                out.append(self.dual_basis[k])
                out.append(coroot - self.dual_basis[k])
        seen = set()
        unique = []
        for f in sorted(out, key=lambda f: f.values):
            if f.values not in seen:
                seen.add(f.values)
                unique.append(f)
        return unique

    def __repr__(self):
        return f"WeightMonoidContext({self.rs.components}, F={list(self.basis)})"


def build_context(rs: RootSystem, basis: Sequence[Weight]) -> WeightMonoidContext:
    return WeightMonoidContext(rs, basis)
