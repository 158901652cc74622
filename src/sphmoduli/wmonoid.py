"""Free monoids of dominant weights and their dual-side data.

A context holds a linearly independent family F of dominant weights.  The
monoid it generates is free, so the dual cone of the generated lattice has
the dual basis of F as its ray generators, and functionals are stored
simply by their value vectors on F.

A context also tables, lazily and for its own lifetime, the data that the
subset decision reads for every candidate set: the lattice coefficients of
each root vector, the coroot functional and the color functionals of each
simple root, the value of each color token on each root, and the dual-cone
data (rays and sign) of each token and coroot.  Nothing is tabled when the
context is built, and no table outlives it.
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
    """Immutable bundle: root system, free basis F, derived constants and
    the lazy tables of the subset decision."""

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
        # Lazy tables keyed by ints and int tuples; only `_classes` hashes
        # functional values, once per token.
        self._memo: dict = {}           # weight -> lattice coefficients
        self._root_coeffs: dict = {}    # root vector -> lattice coefficients
        self._coroots: dict = {}        # i -> coroot functional
        self._half_coroots: dict = {}   # i -> half the coroot functional
        self._colors: dict = {}         # i -> color functionals, a tuple
        self._tokens: dict = {}         # (i, sign) -> (functional, class)
        self._classes: dict = {}        # functional values -> class
        self._token_values: dict = {}   # (i, sign, root vector) -> value
        self._cones: dict = {}          # (i, sign) -> (rays, nonnegative)
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
        if v not in self._root_coeffs:
            self._root_coeffs[v] = self.in_lattice(self.rs.root_to_weight(v))
        return self._root_coeffs[v]

    # -- functionals ---------------------------------------------------------

    def coroot_functional(self, i: int) -> Functional:
        """Restriction of the i-th simple coroot to the basis F."""
        f = self._coroots.get(i)
        if f is None:
            f = self._coroots[i] = Functional(tuple(w[i] for w in self.basis))
        return f

    def half_coroot_functional(self, i: int) -> Functional:
        """Half the coroot functional of i: the color of a doubled root 2a_i."""
        f = self._half_coroots.get(i)
        if f is None:
            f = self._half_coroots[i] = self.coroot_functional(i).scaled(Fraction(1, 2))
        return f

    def color_functionals(self, i: int) -> tuple:
        """The functionals taking value 1 on the i-th simple root that are a
        dual-basis element or the coroot minus one.  These are the candidate
        color pairings attached to a simple spherical root."""
        colors = self._colors.get(i)
        if colors is not None:
            return colors
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
        colors = self._colors[i] = tuple(unique)
        return colors

    # -- color tokens --------------------------------------------------------
    #
    # A simple member a_i of a root set carries two color tokens: (i, "+")
    # with the first and (i, "-") with the last of `color_functionals(i)`.

    def color_token(self, i: int, sign: str) -> tuple:
        """(functional, class) of the token (i, sign).  Tokens of any simple
        roots share a class exactly when their functionals are equal."""
        token = self._tokens.get((i, sign))
        if token is None:
            colors = self.color_functionals(i)
            f = colors[0] if sign == "+" else colors[-1]
            cls = self._classes.setdefault(f.values, len(self._classes))
            token = self._tokens[(i, sign)] = (f, cls)
        return token

    def token_value(self, i: int, sign: str, v: RootVector) -> Fraction:
        """Value of the token (i, sign) on the lattice coefficients of the
        root v, which must lie in the lattice."""
        key = (i, sign, v)
        value = self._token_values.get(key)
        if value is None:
            value = self._token_values[key] = self.color_token(i, sign)[0](
                self.in_lattice_root(v))
        return value

    def cone_data(self, i: int, sign: Optional[str] = None) -> tuple:
        """(rays, nonnegative) of the token (i, sign), or of the coroot of i
        when sign is None: the k for which the functional is a positive
        multiple of dual_basis[k], and whether it lies in the dual cone.
        Positive multiples of the coroot share these."""
        data = self._cones.get((i, sign))
        if data is None:
            f = self.coroot_functional(i) if sign is None else self.color_token(i, sign)[0]
            rays = frozenset(
                k for k in range(self.r) if f.positive_multiple_of(self.dual_basis[k]))
            data = self._cones[(i, sign)] = (rays, f.is_nonnegative())
        return data

    def __repr__(self):
        return f"WeightMonoidContext({self.rs.components}, F={list(self.basis)})"


def build_context(rs: RootSystem, basis: Sequence[Weight]) -> WeightMonoidContext:
    return WeightMonoidContext(rs, basis)
