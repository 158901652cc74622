"""Explicit irreducible highest-weight modules with exact entries.

The module is generated from a highest weight vector by the simple lowering
operators.  Below the highest weight no nonzero vector of an irreducible
module is killed by every simple raising operator, so v -> (e_k v)_k is
injective there, and the candidates f_j w at a weight satisfy exactly the
linear relations of their raised vectors e_k f_j w, which lie in weight
spaces already built.  One reduction of those keeps the first independent
candidates and expands every candidate over them, and the raised vectors
of the kept candidates are their raising columns.  Basis vectors are
Chevalley monomials f_i1 ... f_ik v+, tagged with their weight, so the
torus acts diagonally.  Coefficients follow the number policy of `linalg`:
an int unless a division leaves a remainder.  Each weight carries the
length of every simple-root string below it, computed once from the
weight above it on that string; a candidate weight below the end of the
string is not formed, its candidates are zero and nothing is reduced, and
at a weight with a single candidate that candidate spans the weight space,
so it is kept without a reduction.
"""

from __future__ import annotations

import operator

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


class IrrepModule:
    """Weight-graded basis with sparse simple raising/lowering actions, and
    the columns of non-simple root operators built as they are asked for."""

    def __init__(self, rs: RootSystem, highest: tuple):
        self.rs = rs
        self.dim = 1
        self.weights = [highest]          # fundamental coords per basis index
        self.depths = [tuple(0 for _ in range(rs.rank))]
        self.lower = [dict() for _ in range(rs.rank)]   # f_i combos, id -> [(id, coeff)]
        self.raise_ = [dict() for _ in range(rs.rank)]  # e_i combos
        self.spaces = {highest: [0]}      # weight -> its ids, in order
        self.position = [0]               # id -> its place in spaces[weight]
        # root -> {id: image column}, seeded with the simple tables filled in
        # by build_irrep; non-simple columns are added as they are asked for
        self._columns = {}
        for i, unit in enumerate(rs.simple_roots):
            self._columns[unit] = self.raise_[i]
            self._columns[neg(unit)] = self.lower[i]

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


def capped_dimension(rs: RootSystem, lam: tuple, dim_cap: int) -> int:
    """The Weyl dimension of lam, refused with `DimensionBudgetExceeded`
    above dim_cap."""
    dim = weyl_dimension(rs, lam)
    if dim > dim_cap:
        raise DimensionBudgetExceeded(lam, dim, dim_cap)
    return dim


def build_irrep(rs: RootSystem, lam: Weight, dim_cap: int = 5000) -> IrrepModule:
    lam = tuple(int(c) for c in lam)
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be dominant: {lam}")
    expected = capped_dimension(rs, lam, dim_cap)

    n = rs.rank
    alpha_w = [rs.root_to_weight(a) for a in rs.simple_roots]
    mod = IrrepModule(rs, lam)
    weights, spaces, place = mod.weights, mod.spaces, mod.position
    lower, raise_ = mod.lower, mod.raise_
    # below[nu][i] counts the steps of the a_i-string through the weight nu
    # that lie below it: <nu, a_i^v> + q, where q counts the steps above it,
    # all built at smaller depths.  So nu - a_i is a weight exactly when
    # below[nu][i] >= 1.  A step down the string leaves one step fewer, and
    # a weight mu with no weight mu + a_i is the top of its a_i-string (q = 0).
    below = {lam: lam}
    frontier = [lam]
    while frontier:
        by_weight: dict = {}
        for nu in frontier:
            parents = spaces[nu]
            for i, steps in enumerate(below[nu]):
                if steps < 1:
                    # nu - a_i is not a weight: every candidate f_i w there is zero
                    for w in parents:
                        lower[i][w] = []
                    continue
                mu = tuple(map(operator.sub, nu, alpha_w[i]))
                by_weight.setdefault(mu, []).extend((i, w) for w in parents)
        frontier = sorted(by_weight)
        for mu in frontier:
            cands = by_weight[mu]
            above = {i: weights[w] for i, w in cands}
            below[mu] = tuple(below[above[i]][i] - 1 if i in above else c
                              for i, c in enumerate(mu))
            # raised[b][k] = e_k f_j w = f_j (e_k w) + [k == j] <a_k^v, wt w> w for b = (j, w),
            # as [(id, coeff)] on the kept basis at mu + a_k, the weight of the parents
            # of the candidates (k, .); zero unless k is among them
            raised = []
            for j, w in cands:
                lower_j = lower[j]
                vec = {}
                for k in above:
                    combo: dict = {w: weights[w][k]} if k == j else {}
                    for z, cz in raise_[k].get(w, ()):
                        for t, ct in lower_j[z]:
                            combo[t] = combo.get(t, 0) + cz * ct
                    vec[k] = [(t, c if type(c) is int else
                               linalg.quotient(c.numerator, c.denominator))
                              for t, c in sorted(combo.items()) if c]
                raised.append(vec)
            # One column per candidate, one row per kept basis vector at each mu + a_k:
            # the pivots are the kept candidates, and column pos expands candidate pos
            # over them (a unit column when it is kept).  A lone candidate spans the
            # space of the weight mu on its own and is kept with no reduction.
            if len(cands) == 1:
                red, kept_pos = [[1]], [0]
            else:
                rows = []
                for k, nu in above.items():
                    block = [[0] * len(cands) for _ in spaces[nu]]
                    for b, vec in enumerate(raised):
                        for t, c in vec[k]:
                            block[place[t]][b] = c
                    rows += block
                red, kept_pos = linalg.rref(rows)
            start = mod.dim
            mod.dim += len(kept_pos)
            if mod.dim > expected:
                raise ArithmeticError(
                    f"module of highest weight {lam} outgrew its Weyl dimension {expected}")
            ids = spaces[mu] = list(range(start, mod.dim))
            place += range(len(ids))
            weights += [mu] * len(ids)
            i, parent = cands[0]
            depth = mod.depths[parent]
            mod.depths += [depth[:i] + (depth[i] + 1,) + depth[i + 1:]] * len(ids)
            for idx, pos in zip(ids, kept_pos):
                for k in range(n):
                    raise_[k][idx] = raised[pos].get(k, [])
            for pos, (i, parent) in enumerate(cands):
                lower[i][parent] = [(idx, row[pos]) for idx, row in zip(ids, red) if row[pos]]
    return mod
