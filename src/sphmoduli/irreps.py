"""Explicit irreducible highest-weight modules with exact entries.

The module is generated from a highest weight vector by the simple lowering
operators.  Below the highest weight no nonzero vector of an irreducible
module is killed by every simple raising operator, so v -> (e_k v)_k is
injective there, and the candidates f_j w at a weight satisfy exactly the
linear relations of their raised vectors e_k f_j w, which lie in weight
spaces already built.  One reduction of those keeps the first independent
candidates and expands every candidate over them.  Basis vectors are
Chevalley monomials f_i1 ... f_ik v+, tagged with their weight, so the
torus acts diagonally; the contravariant form <f.u, w> = <u, e.w> is
integral on them and formed on kept pairs only.  Coefficients follow the
number policy of `linalg`: an int unless a division leaves a remainder.  A
candidate weight is tested first against the simple-root string through its
parent, whose upper part is already built; at a non-weight every candidate
is zero and nothing is reduced.
"""

from __future__ import annotations

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
            image = self.apply_root(decomposition, eps, dict(self.column(decomposition, delta, idx)))
            for jdx, c in self.apply_root(decomposition, delta,
                                          dict(self.column(decomposition, eps, idx))).items():
                image[jdx] = image.get(jdx, 0) - c
            col = cols[idx] = [(jdx, linalg.quotient(c, n)) for jdx, c in sorted(image.items()) if c]
        return col

    def apply_root(self, decomposition: dict, root: tuple, vec: dict) -> dict:
        """Image of the sparse vector {id: coeff} under the operator of a
        root, built from the columns of its ids only; entries that cancel
        are dropped."""
        out: dict = {}
        for idx, c in vec.items():
            for jdx, coeff in self.column(decomposition, root, idx):
                out[jdx] = out.get(jdx, 0) + c * coeff
        return {jdx: c for jdx, c in out.items() if c}


def _integral(num: int, den: int) -> int:
    """num / den, which must be an integer: a remainder raises, never rounds."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-integral quotient {num}/{den}")
    return q


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
            # At a non-weight every candidate is zero and nothing is reduced.
            i, parent = cands[0]
            up, q = mod.weights[parent], 0
            while (up := tuple(x + y for x, y in zip(up, alpha_w[i]))) in mod.gram:
                q += 1
            if mod.weights[parent][i] + q < 1:
                for i, parent in cands:
                    mod.lower[i][parent] = []
                continue
            # raised[b][k] = e_k f_j w = f_j (e_k w) + [k == j] <a_k^v, wt w> w for b = (j, w),
            # as (d, coefficients times d) on the kept basis at mu + a_k, the weight of
            # the parents of the candidates (k, .); zero unless k is among them
            above = {i: mod.weights[parent] for i, parent in cands}
            raised = [{} for _ in cands]
            for b, (j, w) in enumerate(cands):
                for k in above:
                    combo: dict = {w: mod.weights[w][k]} if k == j else {}
                    for z, cz in mod.raise_[k].get(w, ()):
                        for t, ct in mod.lower[j][z]:
                            combo[t] = combo.get(t, 0) + cz * ct
                    d = lcm(*(c.denominator for c in combo.values()))
                    raised[b][k] = (d, [(t, c.numerator * (d // c.denominator))
                                        for t, c in sorted(combo.items()) if c])
            # One column per candidate, one row per kept basis vector at each mu + a_k:
            # the pivots are the kept candidates, and column pos expands candidate pos
            # over them (a unit column when it is kept).
            rows = []
            for k, nu in above.items():
                block = [[0] * len(cands) for _ in mod.gram[nu][0]]
                for b, vec in enumerate(raised):
                    d, x = vec[k]
                    for t, c in x:
                        block[place[t]][b] = linalg.quotient(c, d)
                rows += block
            red, kept_pos = linalg.rref(rows)
            ids = list(range(mod.dim, mod.dim + len(kept_pos)))
            mod.dim += len(ids)
            if mod.dim > expected:
                raise ArithmeticError(
                    f"module of highest weight {lam} outgrew its Weyl dimension {expected}")
            place.extend(range(len(ids)))
            # <f_i u, f_j w> = <u, e_i f_j w>, the Gram row of u against a raised
            # vector, on kept pairs; the form is symmetric, so the upper triangle
            # is evaluated
            gram = [[0] * len(ids) for _ in ids]
            for a, pos in enumerate(kept_pos):
                i, u = cands[pos]
                row = mod.gram[mod.weights[u]][1][place[u]]
                for b in range(a, len(ids)):
                    d, x = raised[kept_pos[b]][i]
                    gram[a][b] = gram[b][a] = _integral(sum(row[place[t]] * c for t, c in x), d)
            if ids:
                mod.gram[mu] = (ids, gram)
            for idx, pos in zip(ids, kept_pos):
                i, parent = cands[pos]
                mod.weights.append(mu)
                mod.depths.append(tuple(d + (j == i) for j, d in enumerate(mod.depths[parent])))
                for k in range(n):
                    d, x = raised[pos].get(k, (1, []))
                    mod.raise_[k][idx] = [(t, linalg.quotient(c, d)) for t, c in x]
            for pos, (i, parent) in enumerate(cands):
                mod.lower[i][parent] = [(idx, red[r][pos]) for r, idx in enumerate(ids)
                                        if red[r][pos]]
        prev_ids = range(start, mod.dim)
    return mod
