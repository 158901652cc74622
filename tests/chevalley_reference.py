"""Reference table of integer structure constants for the simple Lie algebra
of a root system.

Basis: one operator per root plus the simple coroots, normalized so that
bracketing a root operator with its opposite gives the coroot.  Signs are
fixed by choosing the constant +(p+1) on the pair (eps, gamma - eps) with
eps minimal in a fixed root order; the remaining constants follow from the
cyclic and four-term identities among the constants.  `sphmoduli.chevalley`
keeps only the decomposition (eps, gamma - eps, p+1) of each positive root;
this full table is what its operators are checked against.
"""

from __future__ import annotations

from fractions import Fraction

from sphmoduli.rootsys import RootSystem, neg, positive_roots, sub


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def root_norm2(rs: RootSystem, v: tuple) -> Fraction:
    """(v, v) with the normalization (a_i, a_j) = d_i * <a_i^v, a_j>."""
    d = rs.symmetrizer
    total = Fraction(0)
    for i in range(rs.rank):
        if v[i]:
            for j in range(rs.rank):
                if v[j]:
                    total += Fraction(v[i] * v[j] * d[i] * rs.cartan[i][j])
    return total


def coroot_weight_pairing(rs: RootSystem, beta: tuple, w: tuple) -> Fraction:
    """<w, beta^v> for a root beta and a weight w, exact rational."""
    d = rs.symmetrizer
    num = sum(Fraction(d[j] * beta[j] * w[j]) for j in range(rs.rank))
    return 2 * num / root_norm2(rs, beta)


def _string_p(root_set: set, a: tuple, b: tuple) -> int:
    """Largest k >= 0 with b - k*a in `root_set`."""
    p = 0
    cur = sub(b, a)
    while cur in root_set:
        p += 1
        cur = sub(cur, a)
    return p


class ReferenceAlgebra:
    """Frozen bracket table; see build_reference."""

    def __init__(self, rs: RootSystem, pos_roots: tuple, constants: dict, decomposition: dict):
        self.rs = rs
        self.pos_roots = pos_roots          # ordered by (height, coords)
        self.constants = constants          # (signed root, signed root) -> int
        self.decomposition = decomposition  # non-simple positive gamma -> (eps, delta)
        self.root_set = set(pos_roots) | {neg(r) for r in pos_roots}

    def is_root(self, v: tuple) -> bool:
        return v in self.root_set

    def string_p(self, a: tuple, b: tuple) -> int:
        """Largest k >= 0 with b - k*a a root."""
        return _string_p(self.root_set, a, b)

    def constant(self, a: tuple, b: tuple) -> int:
        return self.constants.get((a, b), 0)

    def coroot_coefficients(self, a: tuple) -> tuple:
        """Coefficients of a^v on the simple coroots."""
        rs = self.rs
        norm = root_norm2(rs, a)
        return tuple(
            Fraction(2 * rs.symmetrizer[j] * a[j]) / norm for j in range(rs.rank)
        )

    def bracket(self, x: dict, y: dict) -> dict:
        """Bracket of algebra elements given as {key: coeff} over the basis
        keys ('x', root) and ('h', i)."""
        out: dict = {}

        def put(key, coeff):
            if coeff:
                out[key] = out.get(key, Fraction(0)) + coeff
                if out[key] == 0:
                    del out[key]

        for (k1, c1) in x.items():
            for (k2, c2) in y.items():
                c = c1 * c2
                if k1[0] == "h" and k2[0] == "h":
                    continue
                if k1[0] == "h" and k2[0] == "x":
                    put(("x", k2[1]), c * self.rs.pairing(k1[1], k2[1]))
                elif k1[0] == "x" and k2[0] == "h":
                    put(("x", k1[1]), -c * self.rs.pairing(k2[1], k1[1]))
                else:
                    a, b = k1[1], k2[1]
                    s = _add(a, b)
                    if all(v == 0 for v in s):
                        for j, hc in enumerate(self.coroot_coefficients(a)):
                            put(("h", j), c * hc)
                    elif self.is_root(s):
                        put(("x", s), c * self.constant(a, b))
        return out


def build_reference(rs: RootSystem) -> ReferenceAlgebra:
    pos = list(positive_roots(rs))
    order = {r: k for k, r in enumerate(pos)}
    pos_set = set(pos)
    negs = {r: neg(r) for r in pos}
    all_roots = pos_set | set(negs.values())

    norms: dict = {}   # root -> (root, root); -v has the norm of v
    for r in pos:
        norms[r] = norms[negs[r]] = root_norm2(rs, r)

    constants: dict = {}
    decomposition: dict = {}

    def n_mixed(a: tuple, bneg: tuple) -> Fraction:
        """Constant on the pair (a, -b) with a, b positive and a-b a root,
        expressed through constants on positive pairs."""
        b = neg(bneg)
        c = sub(a, b)
        if c in pos_set:
            return -Fraction(norms[c], norms[a]) * constants[(b, c)]
        cbar = neg(c)
        return Fraction(norms[c], norms[b]) * constants[(cbar, a)]

    for gamma in pos:
        if sum(gamma) < 2:
            continue
        specials = sorted(
            (
                (b1, sub(gamma, b1))
                for b1 in pos
                if sub(gamma, b1) in pos_set and order[b1] < order[sub(gamma, b1)]
            ),
            key=lambda pair: order[pair[0]],
        )
        eps, delta = specials[0]
        decomposition[gamma] = (eps, delta)
        n0 = _string_p(all_roots, eps, delta) + 1
        constants[(eps, delta)] = n0
        constants[(delta, eps)] = -n0
        for xi, eta in specials[1:]:
            total = Fraction(0)
            d1 = sub(eta, eps)           # equals delta - xi
            if d1 in all_roots:
                total += n_mixed(delta, neg(xi)) * n_mixed(eps, neg(eta)) / norms[d1]
            d2 = sub(xi, eps)
            if d2 in all_roots:
                total += (-n_mixed(eps, neg(xi))) * n_mixed(delta, neg(eta)) / norms[d2]
            val = Fraction(norms[gamma]) * total / n0
            if val.denominator != 1 or val == 0:
                raise RuntimeError(f"inconsistent constant for pair {xi}+{eta}")
            constants[(xi, eta)] = int(val)
            constants[(eta, xi)] = -int(val)

    full: dict = {}
    for (a, b), v in constants.items():
        full[(a, b)] = v
        full[(negs[a], negs[b])] = -v
    for a in pos:
        for b in pos:
            if a != b and sub(a, b) in all_roots:
                v = n_mixed(a, negs[b])
                if v.denominator != 1:
                    raise RuntimeError(f"non-integer constant on ({a}, -{b})")
                full[(a, negs[b])] = int(v)
                full[(negs[b], a)] = -int(v)
    return ReferenceAlgebra(
        rs=rs,
        pos_roots=tuple(pos),
        constants=full,
        decomposition=decomposition,
    )
