"""Linear-algebra recomputation of the tangent space weights.

Everything here works inside V, the direct sum of the irreducible modules
of the basis weights, with base point x0 the sum of their highest weight
vectors.  A vector of torus weight (lambda_i - gamma) in the i-th summand
carries twisted-torus weight gamma; the twisted-weight-gamma part of the
invariant quotient (V / g.x0) is computed by an explicit solve, and the
surviving tangent directions are cut out by an extension criterion over the
codimension-one orbit degenerations x0 - v_lambda.

The model keys g.x0 by twisted weight: the zero weight holds the highest
vectors, and each positive root beta outside `f_perp` holds X_-beta.x0.
Every other twisted weight has no part in g.x0.  `AmbientModel.gx0_at`
builds each of these vectors when it is first read, so a root that no
solve meets costs nothing.  The quotient is solved only at twisted weights
of height at most ht theta + 1, the most an invariant class can have (see
`invariant_quotient_weights`).  Root operators are built from the bracket
decomposition of `chevalley.build_chevalley`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .chevalley import build_chevalley
from .irreps import build_irrep
from .rootsys import neg, positive_roots, sub
from .wmonoid import WeightMonoidContext


@dataclass
class AmbientModel:
    ctx: WeightMonoidContext
    decomposition: dict    # `chevalley.build_chevalley`
    modules: list
    offsets: list
    dim: int
    x0: dict               # sparse vectors of V: {global id: coeff}
    gx0: dict              # twisted weight -> the g.x0 vectors there, filled by `gx0_at`
    ids_at: dict           # twisted weight (simple-root coords) -> global ids
    lowering: frozenset    # positive roots beta with X_-beta.x0 != 0: those outside f_perp

    def apply_root(self, root: tuple, vec: dict) -> dict:
        """The operator of a root on a sparse vector of V, module by module;
        only the columns of the vector's ids are built."""
        out = {}
        for k, mod in enumerate(self.modules):
            off = self.offsets[k]
            part = {g - off: c for g, c in vec.items() if off <= g < off + mod.dim}
            if part:
                image = mod.apply_root(self.decomposition, root, part)
                out.update((off + t, c) for t, c in image.items())
        return out

    def gx0_at(self, beta: tuple) -> list:
        """The g.x0 vectors of twisted weight beta, built on first request:
        [X_-beta.x0] at a positive root outside `f_perp`, the highest
        vectors at zero (seeded by `build_model`), and none elsewhere."""
        vecs = self.gx0.get(beta)
        if vecs is None:
            vecs = [self.apply_root(neg(beta), self.x0)] if beta in self.lowering else []
            self.gx0[beta] = vecs
        return vecs


def build_model(ctx: WeightMonoidContext, dim_cap: int = 5000) -> AmbientModel:
    decomposition = build_chevalley(ctx.rs)
    modules = [build_irrep(ctx.rs, lam, dim_cap=dim_cap) for lam in ctx.basis]
    offsets = []
    total = 0
    ids_at: dict = {}
    for mod in modules:
        offsets.append(total)
        for idx, depth in enumerate(mod.depths):
            ids_at.setdefault(depth, []).append(total + idx)
        total += mod.dim
    # basis index 0 of each module is its highest vector
    x0 = {off: Fraction(1) for off in offsets}
    gx0 = {(0,) * ctx.n: [{off: Fraction(1)} for off in offsets]}
    lowering = frozenset(positive_roots(ctx.rs)) - frozenset(ctx.f_perp)
    return AmbientModel(ctx, decomposition, modules, offsets, total, x0, gx0, ids_at, lowering)


@dataclass
class InvariantSpace:
    gamma: tuple               # simple-root coordinates
    ids: list                  # global ids of twisted weight gamma: the local coordinates
    solution_basis: list       # local vectors spanning the invariant preimage in V
    boundary: list             # local part already inside g.x0 (0 or 1 vector)

    @property
    def dimension(self) -> int:
        return len(linalg.reduce_mod(self.boundary, self.solution_basis))


def _height_cap(rs) -> int:
    """ht theta + 1, theta the highest root (the highest over the simple
    factors): no invariant class of the quotient sits above this height."""
    return max(sum(beta) for beta in positive_roots(rs)) + 1


def invariant_quotient_weights(model: AmbientModel) -> dict:
    """For each candidate twisted weight, the subspace of the quotient of V
    by g.x0 fixed by the isotropy algebra of x0, keyed by the weight's
    simple-root coordinates.  Only nonzero spaces are returned.

    Weights above `_height_cap` are skipped unsolved.  A nonzero vector v
    of twisted weight gamma != 0 is not a highest vector, since each
    summand of V has its highest line at twisted weight 0; so some e_i v is
    nonzero.  If v is invariant, e_i v lies in g.x0 at twisted weight
    gamma - a_i, which must then be 0 or a positive root: ht gamma is at
    most ht theta + 1."""
    ctx = model.ctx
    cap = _height_cap(ctx.rs)
    out = {}
    for gamma in sorted(model.ids_at):
        if not any(gamma) or sum(gamma) > cap or ctx.in_lattice_root(gamma) is None:
            continue
        space = _invariant_space(model, gamma)
        if space.dimension > 0:
            out[gamma] = space
    return out


def _invariant_space(model: AmbientModel, gamma: tuple) -> InvariantSpace:
    """Vectors of twisted weight gamma, in the local coordinates of
    `model.ids_at[gamma]`, that every required operator sends into g.x0."""
    ctx = model.ctx
    rs = ctx.rs
    ids = model.ids_at[gamma]
    m = len(ids)

    # Required operators: all simple raisings, and the lowerings of simple
    # roots orthogonal to every basis weight.
    ops = list(rs.simple_roots) + [neg(rs.simple_roots[i]) for i in sorted(ctx.sp_gamma)]

    # Unknowns: the m coordinates, then one coefficient per allowed g.x0
    # vector of each operator.  One equation per (operator, touched coordinate).
    equations = []
    cols = m
    for root in ops:
        allowed = model.gx0_at(sub(gamma, root))
        touched: dict = {}
        for c, gid in enumerate(ids):
            for coord, val in model.apply_root(root, {gid: Fraction(1)}).items():
                touched.setdefault(coord, {})[c] = val
        for a, av in enumerate(allowed):
            for coord, val in av.items():
                touched.setdefault(coord, {})[cols + a] = -val
        cols += len(allowed)
        equations += touched.values()
    rows = []
    for eq in equations:
        row = [Fraction(0)] * cols
        for c, val in eq.items():
            row[c] = val
        rows.append(row)
    kernel = linalg.nullspace(rows, cols)
    solution = linalg.independent_subset([kv[:m] for kv in kernel if any(kv[:m])])
    boundary = [[vec.get(gid, Fraction(0)) for gid in ids] for vec in model.gx0_at(gamma)]
    return InvariantSpace(gamma=gamma, ids=ids, solution_basis=solution, boundary=boundary)


def codim1_orbit_weights(ctx: WeightMonoidContext) -> frozenset:
    """Indices k of the basis weights whose degeneration x0 - v_k spans an
    orbit of codimension one: every simple root pairing nontrivially with
    the weight must pair nontrivially with some other basis weight."""
    return frozenset(
        k for k, lam in enumerate(ctx.basis)
        if all(any(mu[i] for t, mu in enumerate(ctx.basis) if t != k)
               for i, c in enumerate(lam) if c))


@dataclass
class OracleReport:
    weights: dict           # gamma (root coords) -> dimension (all 1 if clean)

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
    for gamma, space in sorted(quotient.items()):
        coeffs = ctx.in_lattice_root(gamma)
        surviving = space.solution_basis
        for k in sorted(codim1):
            a = coeffs[k]
            if a > 1:
                surviving = []
            elif a == 1:
                # unit vectors of the degenerating summand, in local coordinates
                lo, hi = model.offsets[k], model.offsets[k] + model.modules[k].dim
                m = len(space.ids)
                allowed = [[Fraction(int(p == q)) for q in range(m)]
                           for p, gid in enumerate(space.ids) if lo <= gid < hi]
                allowed += space.boundary
                surviving = linalg.span_intersection(surviving, allowed)
            if not surviving:
                break
        dim = len(linalg.reduce_mod(space.boundary, surviving))
        if dim >= 1:
            weights[gamma] = dim
    return OracleReport(weights=weights)
