"""Pairwise construction of irreducible modules, the reference for the
package's `build_irrep`.

The candidates at each weight are reduced by their Gram matrix under the
contravariant form, every entry <f_i u, f_j w> expanded on its own, one
level up via contravariance, in Fractions; the raising action on the kept
vectors is then computed in a separate pass.  The package reduces the
raised vectors instead and keeps no form.  It must produce the same
weights, depths, lowering and raising combinations, equal by value, and
`ReferenceModule.form` is the form that the contravariance tests read
against its tables.

`freudenthal_multiplicities` gives the weight multiplicities without a
module, which the package's modules must reproduce.
"""

from fractions import Fraction

from sphmoduli import linalg
from sphmoduli.irreps import _integral
from sphmoduli.rootsys import is_dominant, positive_roots


class ReferenceModule:
    def __init__(self, rs, highest):
        self.rs = rs
        self.highest = highest
        self.dim = 1
        self.weights = [highest]
        self.depths = [tuple(0 for _ in range(rs.rank))]
        self.lower = [dict() for _ in range(rs.rank)]
        self.raise_ = [dict() for _ in range(rs.rank)]
        self.gram = {highest: ([0], [[Fraction(1)]])}

    def form(self, a, b):
        wa = tuple(self.weights[a])
        if tuple(self.weights[b]) != wa:
            return Fraction(0)
        ids, mat = self.gram[wa]
        return mat[ids.index(a)][ids.index(b)]


def _candidate_form(mod, ca, cb):
    """<f_i u, f_j w> evaluated one level up via contravariance."""
    i, u = ca
    j, w = cb
    # e_i (f_j w) = f_j (e_i w) + [i == j] <a_i^v, wt(w)> w
    val = Fraction(0)
    for z, cz in mod.raise_[i].get(w, ()):
        for t, ct in mod.lower[j].get(z, ()):
            val += cz * ct * mod.form(u, t)
    if i == j:
        val += Fraction(mod.weights[w][i]) * mod.form(u, w)
    return val


def reference_irrep(rs, lam):
    lam = tuple(int(c) for c in lam)
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be dominant: {lam}")
    n = rs.rank
    alpha_w = [rs.root_to_weight(tuple(1 if j == i else 0 for j in range(n)))
               for i in range(n)]
    mod = ReferenceModule(rs, lam)
    creators = {}
    prev_ids = [0]
    while prev_ids:
        by_weight = {}
        for parent in prev_ids:
            wp = mod.weights[parent]
            for i in range(n):
                mu = tuple(m - x for m, x in zip(wp, alpha_w[i]))
                by_weight.setdefault(mu, []).append((i, parent))
        new_ids = []
        for mu in sorted(by_weight):
            cands = by_weight[mu]
            m = len(cands)
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
        for idx in new_ids:
            i, parent = creators[idx]
            for k in range(n):
                combo = {}
                for z, cz in mod.raise_[k].get(parent, ()):
                    for t, ct in mod.lower[i].get(z, ()):
                        combo[t] = combo.get(t, Fraction(0)) + cz * ct
                if k == i:
                    wpar = mod.weights[parent]
                    combo[parent] = combo.get(parent, Fraction(0)) + Fraction(wpar[i])
                mod.raise_[k][idx] = [(t, c) for t, c in sorted(combo.items()) if c]
        prev_ids = new_ids
    return mod


def freudenthal_multiplicities(rs, lam) -> dict:
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
