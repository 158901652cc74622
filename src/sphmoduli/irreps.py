"""Explicit irreducible highest-weight modules with exact entries.

The module is generated from a highest weight vector by the simple lowering
operators; at each weight the symmetric form with <f.u, w> = <u, e.w> is
evaluated on the candidate vectors, and its rank cuts out the part that
survives in the irreducible quotient.  Basis vectors are Chevalley
monomials f_i1 ... f_ik v+, on which the form is integral, so Gram matrices
hold ints.  They are tagged with their weight, so the torus acts diagonally
by construction.  A candidate weight is tested first against the simple-root
string through its parent, whose upper part is already built; at a weight
that is not a weight of the module, every candidate is zero and no Gram
matrix is formed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .rootsys import RootSystem, Weight, is_dominant, neg, positive_roots


class DimensionBudgetExceeded(RuntimeError):
    def __init__(self, weight, dim, cap):
        self.weight = weight
        self.dim = dim
        self.cap = cap
        super().__init__(
            f"irreducible module of highest weight {weight} has dimension {dim} > cap {cap}"
        )


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """Product formula for the dimension of the irreducible module, as one
    integer quotient of (lam + rho, beta) by (rho, beta) over the positive
    roots beta."""
    num = den = 1
    for beta in positive_roots(rs):
        num *= sum(d * b * (c + 1) for d, b, c in zip(rs.symmetrizer, beta, lam))
        den *= sum(d * b for d, b in zip(rs.symmetrizer, beta))
    return _integral(num, den)


def freudenthal_multiplicities(rs: RootSystem, lam: Weight) -> dict:
    """Weight multiplicities by downward recursion over weight strings, in
    integers.  A weight w pairs with a root-lattice vector b as
    sum d_i w_i b_i, d the symmetrizer; for mu = lam - beta,
    |lam + rho|^2 - |mu + rho|^2 is the pairing of 2(lam + rho) - A.beta
    = lam + mu + 2 rho with beta."""
    lam = tuple(int(c) for c in lam)
    sym = rs.symmetrizer
    # each positive root as (its weight, its root coordinates times d, its height)
    pos = [(rs.root_to_weight(b), tuple(d * x for d, x in zip(sym, b)), sum(b))
           for b in positive_roots(rs)]
    mult = {lam: 1}
    depth = {lam: tuple(0 for _ in lam)}   # weight mu -> its depth beta = lam - mu
    frontier = [lam]
    while frontier:
        candidates = {}
        for mu in frontier:
            for a in rs.simple_roots:
                nu = tuple(m - x for m, x in zip(mu, rs.root_to_weight(a)))
                if nu not in mult:
                    candidates[nu] = tuple(b + x for b, x in zip(depth[mu], a))
        frontier = []
        for mu, beta in candidates.items():
            den = sum(d * (c + m + 2) * b for d, c, m, b in zip(sym, lam, mu, beta))
            if den <= 0:
                continue
            height = sum(beta)
            total = 0
            for beta_w, beta_d, beta_height in pos:
                for k in range(1, height // beta_height + 1):
                    up = tuple(m + k * b for m, b in zip(mu, beta_w))
                    m_up = mult.get(up, 0)
                    if m_up:
                        total += m_up * sum(u * b for u, b in zip(up, beta_d))
            m = _integral(2 * total, den)
            if m < 0:
                raise ArithmeticError(f"negative multiplicity {m} at weight {mu}")
            if m > 0:
                mult[mu] = m
                depth[mu] = beta
                frontier.append(mu)
    return mult


class IrrepModule:
    """Weight-graded basis with sparse simple raising/lowering actions, the
    symmetric contravariant form stored per weight space, and the columns
    of non-simple root operators built as they are asked for."""

    def __init__(self, rs: RootSystem, highest: tuple):
        self.rs = rs
        self.highest = highest
        self.dim = 1
        self.weights = [highest]          # fundamental coords per basis index
        self.depths = [tuple(0 for _ in range(rs.rank))]
        self.lower = [dict() for _ in range(rs.rank)]   # f_i combos, id -> [(id, coeff)]
        self.raise_ = [dict() for _ in range(rs.rank)]  # e_i combos
        self.gram = {highest: ([0], [[1]])}   # weight -> (ids, int matrix)
        self.position = [0]                   # id -> its place in gram[weight][0]
        # root -> {id: image column}, seeded with the simple tables filled in
        # by build_irrep; non-simple columns are added as they are asked for
        self._columns = {}
        for i, unit in enumerate(rs.simple_roots):
            self._columns[unit] = self.raise_[i]
            self._columns[neg(unit)] = self.lower[i]

    def ids_of_weight(self, w) -> list:
        entry = self.gram.get(tuple(w))
        return list(entry[0]) if entry else []

    def form(self, a: int, b: int) -> int:
        wa = tuple(self.weights[a])
        if tuple(self.weights[b]) != wa:
            return 0
        return self.gram[wa][1][self.position[a]][self.position[b]]

    def column(self, decomposition: dict, root: tuple, idx: int):
        """Image [(id, coeff)] of basis vector `idx` under the operator of a
        root.  A non-simple root's column is built on first request, from
        the bracket decomposition gamma = a_i + delta with constant N (see
        `chevalley.build_chevalley`), as
        X_gamma = (X_ai X_delta - X_delta X_ai) / N, and X_-gamma likewise
        from -a_i and -delta with constant -N; it is kept."""
        cols = self._columns.setdefault(root, {})
        col = cols.get(idx)
        if col is None:
            height = sum(root)
            if abs(height) == 1:
                return ()   # a simple table lists all its nonzero columns
            eps, delta, n = decomposition[root if height > 0 else neg(root)]
            if height < 0:
                eps, delta, n = neg(eps), neg(delta), -n
            inv = Fraction(1, n)
            image = self.apply_root(decomposition, eps, dict(self.column(decomposition, delta, idx)))
            for jdx, c in self.apply_root(decomposition, delta,
                                          dict(self.column(decomposition, eps, idx))).items():
                image[jdx] = image.get(jdx, Fraction(0)) - c
            col = cols[idx] = [(jdx, c * inv) for jdx, c in sorted(image.items()) if c]
        return col

    def apply_root(self, decomposition: dict, root: tuple, vec: dict) -> dict:
        """Image of the sparse vector {id: coeff} under the operator of a
        root, built from the columns of its ids only; entries that cancel
        are dropped."""
        out: dict = {}
        for idx, c in vec.items():
            for jdx, coeff in self.column(decomposition, root, idx):
                out[jdx] = out.get(jdx, Fraction(0)) + c * coeff
        return {jdx: c for jdx, c in out.items() if c}


def _integral(num: int, den: int) -> int:
    """num / den, which must be an integer: a remainder raises, never rounds."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-integral quotient {Fraction(num, den)}")
    return q


def _exact(c):
    """A coefficient as an int when it is integral, else as it is."""
    return c.numerator if c.denominator == 1 else c


def build_irrep(rs: RootSystem, lam: Weight, dim_cap: int = 5000) -> IrrepModule:
    lam = tuple(int(c) for c in lam)
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be dominant: {lam}")
    expected = weyl_dimension(rs, lam)
    if expected > dim_cap:
        raise DimensionBudgetExceeded(lam, expected, dim_cap)

    n = rs.rank
    alpha_w = [rs.root_to_weight(a) for a in rs.simple_roots]
    mod = IrrepModule(rs, lam)
    place = mod.position
    prev_ids = [0]
    while prev_ids:
        by_weight: dict = {}
        for parent in prev_ids:
            for i, a in enumerate(alpha_w):
                mu = tuple(m - x for m, x in zip(mod.weights[parent], a))
                by_weight.setdefault(mu, []).append((i, parent))
        start = mod.dim
        for mu in sorted(by_weight):
            cands = by_weight[mu]
            # mu = nu - a_i is a weight exactly when the a_i-string through nu
            # reaches below nu: <nu, a_i^v> + q >= 1, where q counts the
            # weights nu + a_i, nu + 2a_i, ..., all built at smaller depths.
            # At a non-weight every candidate is zero, with no Gram work.
            i, parent = cands[0]
            up, q = mod.weights[parent], 0
            while (up := tuple(x + y for x, y in zip(up, alpha_w[i]))) in mod.gram:
                q += 1
            if mod.weights[parent][i] + q < 1:
                for i, parent in cands:
                    mod.lower[i][parent] = []
                continue
            m = len(cands)
            # raised[b][k] = e_k f_j w = f_j (e_k w) + [k == j] <a_k^v, wt w> w for b = (j, w),
            # as (d, coefficients times d) on the kept basis at mu + a_k; zero unless k in ks
            ks = {i for i, _ in cands}   # the k for which mu + a_k is a weight
            raised = [{} for _ in range(m)]
            for b, (j, w) in enumerate(cands):
                for k in ks:
                    combo: dict = {w: mod.weights[w][k]} if k == j else {}
                    for z, cz in mod.raise_[k].get(w, ()):
                        for t, ct in mod.lower[j][z]:
                            combo[t] = combo.get(t, 0) + cz * ct
                    d = lcm(*(c.denominator for c in combo.values()))
                    raised[b][k] = (d, [(t, c.numerator * (d // c.denominator))
                                        for t, c in sorted(combo.items()) if c])
            # <f_i u, f_j w> = <u, e_i f_j w>, the Gram row of u against a raised
            # vector; the form is symmetric, so the upper triangle is evaluated
            cg = [[0] * m for _ in range(m)]
            for a, (i, u) in enumerate(cands):
                row = mod.gram[mod.weights[u]][1][place[u]]
                for b in range(a, m):
                    d, x = raised[b][i]
                    cg[a][b] = cg[b][a] = _integral(sum(row[place[t]] * c for t, c in x), d)
            echelon = linalg.Echelon()
            kept_pos = [p for p, row in enumerate(cg) if echelon.add(row)]
            ids = list(range(mod.dim, mod.dim + len(kept_pos)))
            mod.dim += len(ids)
            if mod.dim > expected:
                raise ArithmeticError(
                    f"module of highest weight {lam} outgrew its Weyl dimension {expected}")
            place.extend(range(len(ids)))
            for idx, pos in zip(ids, kept_pos):
                i, parent = cands[pos]
                mod.weights.append(mu)
                mod.depths.append(tuple(d + (j == i) for j, d in enumerate(mod.depths[parent])))
                for k in range(n):
                    d, x = raised[pos].get(k, (1, []))
                    mod.raise_[k][idx] = [(t, _exact(Fraction(c, d))) for t, c in x] if d > 1 else x
            # Every candidate over the kept basis: the kept Gram block is invertible, so
            # one reduction of [kept block | dropped columns] solves for all dropped ones.
            combos = {pos: [(idx, 1)] for pos, idx in zip(kept_pos, ids)}
            dropped = [pos for pos in range(m) if pos not in combos]
            if ids:
                mod.gram[mu] = (ids, [[cg[a][b] for b in kept_pos] for a in kept_pos])
                if dropped:
                    red, _ = linalg.rref([[cg[a][b] for b in kept_pos + dropped] for a in kept_pos])
                    for col, pos in enumerate(dropped, start=len(ids)):
                        combos[pos] = [(idx, _exact(red[t][col])) for t, idx in enumerate(ids)
                                       if red[t][col]]
            for pos, (i, parent) in enumerate(cands):
                mod.lower[i][parent] = combos.get(pos, [])
        prev_ids = range(start, mod.dim)
    return mod
