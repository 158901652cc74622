"""Linear-algebra recomputation of the tangent space weights.

Everything here works inside V, the direct sum of the irreducible modules
of the basis weights, with base point x0 the sum of their highest weight
vectors.  A vector of torus weight (lambda_i - gamma) in the i-th summand
carries twisted-torus weight gamma; the twisted-weight-gamma part of the
invariant quotient (V / g.x0) is computed by an explicit solve, and the
surviving tangent directions are cut out by an extension criterion over the
codimension-one orbit degenerations x0 - v_lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .chevalley import ChevalleyAlgebra, _neg, build_chevalley
from .irreps import build_irrep
from .rootsys import positive_roots
from .wmonoid import WeightMonoidContext


@dataclass
class AmbientModel:
    ctx: WeightMonoidContext
    alg: ChevalleyAlgebra
    modules: list
    offsets: list
    dim: int
    x0: list
    gx0_vectors: dict      # tag -> vector; tags ('hw', k) and ('low', beta)

    def block(self, k: int, vec: list) -> list:
        out = [Fraction(0)] * self.dim
        off = self.offsets[k]
        for i, c in enumerate(vec):
            out[off + i] = c
        return out

    def apply_simple(self, i: int, sign: int, vec: list) -> list:
        out = [Fraction(0)] * self.dim
        for k, mod in enumerate(self.modules):
            off = self.offsets[k]
            part = vec[off:off + mod.dim]
            if any(part):
                res = mod.apply_simple(i, sign, part)
                for t, c in enumerate(res):
                    out[off + t] = c
        return out

    def apply_root(self, root: tuple, vec: list) -> list:
        out = [Fraction(0)] * self.dim
        for k, mod in enumerate(self.modules):
            off = self.offsets[k]
            part = vec[off:off + mod.dim]
            if any(part):
                res = mod.apply_root(self.alg, root, part)
                for t, c in enumerate(res):
                    out[off + t] = c
        return out

    def twisted_weight_ids(self, gamma_root: tuple) -> list:
        """Global basis indices of twisted-torus weight gamma (a root-lattice
        vector in simple-root coordinates)."""
        ids = []
        for k, mod in enumerate(self.modules):
            off = self.offsets[k]
            for idx in range(mod.dim):
                if mod.depths[idx] == gamma_root:
                    ids.append(off + idx)
        return ids


def build_model(ctx: WeightMonoidContext, dim_cap: int = 5000) -> AmbientModel:
    alg = build_chevalley(ctx.rs)
    modules = [build_irrep(ctx.rs, lam, dim_cap=dim_cap) for lam in ctx.basis]
    offsets = []
    total = 0
    for mod in modules:
        offsets.append(total)
        total += mod.dim
    x0 = [Fraction(0)] * total
    for off in offsets:
        x0[off] = Fraction(1)   # basis index 0 of each module is its highest vector
    model = AmbientModel(ctx, alg, modules, offsets, total, x0, {})
    f_perp = set(ctx.f_perp)
    for k in range(len(modules)):
        hv = [Fraction(0)] * total
        hv[offsets[k]] = Fraction(1)
        model.gx0_vectors[("hw", k)] = hv
    for beta in positive_roots(ctx.rs):
        if beta in f_perp:
            continue
        vec = model.apply_root(_neg(beta), x0)
        model.gx0_vectors[("low", beta)] = vec
    return model


@dataclass
class InvariantSpace:
    gamma: tuple               # simple-root coordinates
    solution_basis: list       # vectors spanning the invariant preimage in V
    boundary: list             # the part already inside g.x0 (0 or 1 vector)

    @property
    def dimension(self) -> int:
        return len(self.representatives())

    def representatives(self) -> list:
        return linalg.reduce_mod(self.boundary, self.solution_basis)


def invariant_quotient_weights(model: AmbientModel) -> dict:
    """For each candidate twisted weight, the subspace of the quotient of V
    by g.x0 fixed by the isotropy algebra of x0, keyed by the weight's
    simple-root coordinates.  Only nonzero spaces are returned."""
    ctx = model.ctx
    candidates = set()
    for mod in model.modules:
        for depth in mod.depths:
            if any(depth):
                candidates.add(depth)
    out = {}
    for gamma in sorted(candidates):
        if ctx.in_lattice_root(gamma) is None:
            continue
        space = _invariant_space(model, gamma)
        if space is not None and space.dimension > 0:
            out[gamma] = space
    return out


def _gx0_piece(model: AmbientModel, gamma_root: tuple) -> list:
    """Basis of the twisted-weight-gamma part of g.x0."""
    if all(c == 0 for c in gamma_root):
        return [model.gx0_vectors[("hw", k)] for k in range(len(model.modules))]
    vec = model.gx0_vectors.get(("low", gamma_root))
    return [vec] if vec is not None else []


def _invariant_space(model: AmbientModel, gamma: tuple) -> Optional[InvariantSpace]:
    ctx = model.ctx
    rs = ctx.rs
    ids = model.twisted_weight_ids(gamma)
    if not ids:
        return None
    m = len(ids)
    basis_vectors = []
    for gid in ids:
        v = [Fraction(0)] * model.dim
        v[gid] = Fraction(1)
        basis_vectors.append(v)

    # Required operators: all simple raisings, and the lowerings of simple
    # roots orthogonal to every basis weight.
    ops = [(i, +1) for i in range(rs.rank)]
    ops += [(i, -1) for i in sorted(ctx.sp_gamma)]

    images = {}
    targets = {}
    aux_count = 0
    aux_offsets = {}
    for op in ops:
        i, sign = op
        images[op] = [model.apply_simple(i, sign, v) for v in basis_vectors]
        shifted = list(gamma)
        shifted[i] -= sign
        shifted = tuple(shifted)
        allowed = _gx0_piece(model, shifted) if (
            all(c == 0 for c in shifted) or shifted in model.alg.root_set
        ) else []
        targets[op] = allowed
        aux_offsets[op] = aux_count
        aux_count += len(allowed)

    cols = m + aux_count
    rows = []
    for op in ops:
        allowed = targets[op]
        for coord in range(model.dim):
            row = [Fraction(0)] * cols
            nonzero = False
            for c in range(m):
                val = images[op][c][coord]
                if val:
                    row[c] = val
                    nonzero = True
            for a, av in enumerate(allowed):
                if av[coord]:
                    row[m + aux_offsets[op] + a] = -av[coord]
                    nonzero = True
            if nonzero:
                rows.append(row)
    kernel = linalg.nullspace(rows, cols)
    solution = []
    for kv in kernel:
        v = [Fraction(0)] * model.dim
        for c in range(m):
            if kv[c]:
                for coord in range(model.dim):
                    v[coord] += kv[c] * basis_vectors[c][coord]
        if any(v):
            solution.append(v)
    solution = linalg.independent_subset(solution)
    boundary = _gx0_piece(model, gamma)
    return InvariantSpace(gamma=gamma, solution_basis=solution, boundary=boundary)


def codim1_orbit_weights(ctx: WeightMonoidContext) -> frozenset:
    """Indices k of the basis weights whose degeneration x0 - v_k spans an
    orbit of codimension one: every simple root pairing nontrivially with
    the weight must pair nontrivially with some other basis weight."""
    out = []
    for k, lam in enumerate(ctx.basis):
        ok = True
        for i in range(ctx.n):
            if lam[i] != 0 and not any(
                mu[i] != 0 for t, mu in enumerate(ctx.basis) if t != k
            ):
                ok = False
                break
        if ok:
            out.append(k)
    return frozenset(out)


@dataclass
class OracleReport:
    weights: dict           # gamma (root coords) -> dimension (all 1 if clean)
    flagged: list           # gammas with dimension >= 2 (theorem violation)

    def weight_coords(self) -> set:
        return set(self.weights)


def oracle_tangent_weights(model: AmbientModel,
                           quotient: Optional[dict] = None) -> OracleReport:
    """Filter the invariant quotient by the extension criterion: for every
    codimension-one degeneration with positive pairing against gamma, the
    class must, at pairing one, come from the degenerating summand alone,
    and at pairing above one nothing survives."""
    ctx = model.ctx
    if quotient is None:
        quotient = invariant_quotient_weights(model)
    codim1 = codim1_orbit_weights(ctx)
    weights = {}
    flagged = []
    for gamma, space in sorted(quotient.items()):
        coeffs = ctx.in_lattice_root(gamma)
        surviving = space.solution_basis
        for k in sorted(codim1):
            a = coeffs[k]
            if a > 1:
                surviving = []
            elif a == 1:
                off = model.offsets[k]
                mod = model.modules[k]
                allowed = []
                for idx in range(mod.dim):
                    if mod.depths[idx] == gamma:
                        v = [Fraction(0)] * model.dim
                        v[off + idx] = Fraction(1)
                        allowed.append(v)
                allowed += space.boundary
                surviving = linalg.span_intersection(surviving, allowed)
            if not surviving:
                break
        dim = len(linalg.reduce_mod(space.boundary, surviving))
        if dim >= 2:
            flagged.append(gamma)
        if dim >= 1:
            weights[gamma] = dim
    return OracleReport(weights=weights, flagged=flagged)
