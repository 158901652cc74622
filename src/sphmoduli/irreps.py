"""Explicit irreducible highest-weight modules with exact rational entries.

The module is generated from a highest weight vector by the simple lowering
operators; at each weight the symmetric form with <f.u, w> = <u, e.w> is
evaluated on the candidate vectors, and its rank cuts out the part that
survives in the irreducible quotient.  Basis vectors are tagged with their
weight, so the torus acts diagonally by construction.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .chevalley import ChevalleyAlgebra, _neg
from .rootsys import RootSystem, Weight, is_dominant, positive_roots


class DimensionBudgetExceeded(RuntimeError):
    def __init__(self, weight, dim, cap):
        self.weight = weight
        self.dim = dim
        self.cap = cap
        super().__init__(
            f"irreducible module of highest weight {weight} has dimension {dim} > cap {cap}"
        )


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """Product formula for the dimension of the irreducible module."""
    d = rs.symmetrizer
    dim = Fraction(1)
    for beta in positive_roots(rs):
        num = sum(d[j] * beta[j] * (lam[j] + 1) for j in range(rs.rank))
        den = sum(d[j] * beta[j] for j in range(rs.rank))
        dim *= Fraction(num, den)
    assert dim.denominator == 1
    return int(dim)


def weight_inner(rs: RootSystem, a: Weight, b: Weight) -> Fraction:
    """Invariant inner product of two weights in fundamental coordinates."""
    broot = rs.weight_to_root(b)
    return sum(
        (Fraction(rs.symmetrizer[j]) * a[j] * broot[j] for j in range(rs.rank)),
        Fraction(0),
    )


def freudenthal_multiplicities(rs: RootSystem, lam: Weight) -> dict:
    """Weight multiplicities by downward recursion over weight strings."""
    lam = tuple(int(c) for c in lam)
    pos = positive_roots(rs)
    pos_w = [(rs.root_to_weight(b), sum(b)) for b in pos]
    lam_rho = tuple(c + 1 for c in lam)
    top = weight_inner(rs, lam_rho, lam_rho)
    alpha_w = [rs.root_to_weight(tuple(1 if j == i else 0 for j in range(rs.rank)))
               for i in range(rs.rank)]
    mult = {lam: 1}
    depth = {lam: 0}
    frontier = [lam]
    while frontier:
        candidates = {}
        for mu in frontier:
            for a in alpha_w:
                nu = tuple(m - x for m, x in zip(mu, a))
                if nu not in mult:
                    candidates[nu] = depth[mu] + 1
        frontier = []
        for mu in sorted(candidates):
            mu_rho = tuple(m + 1 for m in mu)
            den = top - weight_inner(rs, mu_rho, mu_rho)
            if den <= 0:
                continue
            total = Fraction(0)
            for beta_w, height in pos_w:
                for k in range(1, candidates[mu] // height + 1):
                    up = tuple(m + k * b for m, b in zip(mu, beta_w))
                    m_up = mult.get(up, 0)
                    if m_up:
                        total += m_up * weight_inner(rs, up, beta_w)
            m = 2 * total / den
            assert m.denominator == 1 and m >= 0
            if m > 0:
                mult[mu] = int(m)
                depth[mu] = candidates[mu]
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
        self.gram = {highest: ([0], [[Fraction(1)]])}   # weight -> (ids, matrix)
        # root -> {id: image column}, seeded with the simple tables filled in
        # by build_irrep; non-simple columns are added as they are asked for
        self._columns = {}
        for i in range(rs.rank):
            unit = tuple(1 if j == i else 0 for j in range(rs.rank))
            self._columns[unit] = self.raise_[i]
            self._columns[_neg(unit)] = self.lower[i]

    def ids_of_weight(self, w) -> list:
        entry = self.gram.get(tuple(w))
        return list(entry[0]) if entry else []

    def form(self, a: int, b: int) -> Fraction:
        wa = tuple(self.weights[a])
        if tuple(self.weights[b]) != wa:
            return Fraction(0)
        ids, mat = self.gram[wa]
        return mat[ids.index(a)][ids.index(b)]

    def column(self, alg: ChevalleyAlgebra, root: tuple, idx: int):
        """Image [(id, coeff)] of basis vector `idx` under the operator of a
        root.  A non-simple root's column is built on first request, from
        the fixed bracket decomposition gamma = eps + delta, as
        X_gamma = (X_eps X_delta - X_delta X_eps) / N, and kept."""
        cols = self._columns.setdefault(root, {})
        col = cols.get(idx)
        if col is None:
            height = sum(root)
            if abs(height) == 1:
                return ()   # a simple table lists all its nonzero columns
            eps, delta = alg.decomposition[root if height > 0 else _neg(root)]
            if height < 0:
                eps, delta = _neg(eps), _neg(delta)
            inv = Fraction(1, alg.constant(eps, delta))
            image = self.apply_root(alg, eps, dict(self.column(alg, delta, idx)))
            for jdx, c in self.apply_root(alg, delta, dict(self.column(alg, eps, idx))).items():
                image[jdx] = image.get(jdx, Fraction(0)) - c
            col = cols[idx] = [(jdx, c * inv) for jdx, c in sorted(image.items()) if c]
        return col

    def apply_root(self, alg: ChevalleyAlgebra, root: tuple, vec: dict) -> dict:
        """Image of the sparse vector {id: coeff} under the operator of a
        root, built from the columns of its ids only; entries that cancel
        are dropped."""
        out: dict = {}
        for idx, c in vec.items():
            for jdx, coeff in self.column(alg, root, idx):
                out[jdx] = out.get(jdx, Fraction(0)) + c * coeff
        return {jdx: c for jdx, c in out.items() if c}


def _candidate_form(mod: IrrepModule, ca, cb) -> Fraction:
    """<f_i u, f_j w> evaluated one level up via contravariance."""
    i, u = ca
    j, w = cb
    # e_i (f_j w) = f_j (e_i w) + [i == j] <a_i^v, wt(w)> w; every t below
    # has the weight of u
    val = Fraction(0)
    for z, cz in mod.raise_[i].get(w, ()):
        for t, ct in mod.lower[j].get(z, ()):
            val += cz * ct * mod.form(u, t)
    if i == j:
        val += Fraction(mod.weights[w][i]) * mod.form(u, w)
    return val


def build_irrep(rs: RootSystem, lam: Weight, dim_cap: int = 5000) -> IrrepModule:
    lam = tuple(int(c) for c in lam)
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be dominant: {lam}")
    expected = weyl_dimension(rs, lam)
    if expected > dim_cap:
        raise DimensionBudgetExceeded(lam, expected, dim_cap)

    n = rs.rank
    alpha_w = [rs.root_to_weight(tuple(1 if j == i else 0 for j in range(n)))
               for i in range(n)]
    mod = IrrepModule(rs, lam)
    creators: dict = {}
    prev_ids = [0]
    while prev_ids:
        by_weight: dict = {}
        for parent in prev_ids:
            wp = mod.weights[parent]
            for i in range(n):
                mu = tuple(m - x for m, x in zip(wp, alpha_w[i]))
                by_weight.setdefault(mu, []).append((i, parent))
        new_ids: list = []
        for mu in sorted(by_weight):
            cands = by_weight[mu]
            m = len(cands)
            # the contravariant form is symmetric: evaluate the upper triangle
            cg = [[None] * m for _ in range(m)]
            for a in range(m):
                for b in range(a, m):
                    cg[a][b] = cg[b][a] = _candidate_form(mod, cands[a], cands[b])
            echelon = linalg.Echelon()
            kept_pos = [p for p, row in enumerate(cg) if echelon.add(row)]
            ids = []
            for pos in kept_pos:
                i, parent = cands[pos]
                idx = mod.dim
                mod.dim += 1
                mod.weights.append(mu)
                mod.depths.append(tuple(
                    d + (1 if j == i else 0) for j, d in enumerate(mod.depths[parent])
                ))
                creators[idx] = (i, parent)
                ids.append(idx)
                new_ids.append(idx)
            # Expansion of every candidate over the kept basis of this weight:
            # the kept Gram block is invertible, so one reduction of
            # [kept block | dropped columns] solves for all dropped candidates.
            combos = {pos: [(idx, Fraction(1))] for pos, idx in zip(kept_pos, ids)}
            dropped = [pos for pos in range(m) if pos not in combos]
            if ids:
                mod.gram[mu] = (ids, [[cg[a][b] for b in kept_pos] for a in kept_pos])
                if dropped:
                    columns = kept_pos + dropped
                    red, _ = linalg.rref([[cg[a][b] for b in columns] for a in kept_pos])
                    for col, pos in enumerate(dropped, start=len(ids)):
                        combos[pos] = [(idx, red[t][col]) for t, idx in enumerate(ids)
                                       if red[t][col]]
            for pos, (i, parent) in enumerate(cands):
                mod.lower[i][parent] = combos.get(pos, [])
        # Raising action on the freshly kept vectors.
        for idx in new_ids:
            i, parent = creators[idx]
            for k in range(n):
                combo: dict = {}
                for z, cz in mod.raise_[k].get(parent, ()):
                    for t, ct in mod.lower[i].get(z, ()):
                        combo[t] = combo.get(t, Fraction(0)) + cz * ct
                if k == i:
                    wpar = mod.weights[parent]
                    combo[parent] = combo.get(parent, Fraction(0)) + Fraction(wpar[i])
                mod.raise_[k][idx] = [(t, c) for t, c in sorted(combo.items()) if c]
        prev_ids = new_ids
    return mod
