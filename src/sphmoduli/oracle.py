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
solve meets costs nothing.  The quotient is solved only at the lattice
members of C = {a_i} + {beta + a_i : beta a positive root outside
`f_perp`}, the only twisted weights where an invariant class can live (see
`quotient_candidates`); C is read from the root system and the context.
`oracle_report` also drops the members that the extension filter would
empty, and builds no model when none is left.  A zero space is decided by
one rank (see `_invariant_space`).  Root operators are built from the
bracket decomposition of `chevalley.build_chevalley`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from . import linalg
from .chevalley import build_chevalley
from .irreps import build_irrep, capped_dimension
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
        """The operator of a root on a sparse vector of V, summand by
        summand; each id goes to its summand by bisection over `offsets`,
        and only the columns of the vector's ids are built."""
        parts: dict = {}
        for g, c in vec.items():
            k = bisect_right(self.offsets, g) - 1
            parts.setdefault(k, {})[g - self.offsets[k]] = c
        out = {}
        for k, part in parts.items():
            off = self.offsets[k]
            image = self.modules[k].apply_root(self.decomposition, root, part)
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
    x0 = dict.fromkeys(offsets, 1)
    gx0 = {(0,) * ctx.n: [{off: 1} for off in offsets]}
    lowering = frozenset(positive_roots(ctx.rs)) - frozenset(ctx.f_perp)
    return AmbientModel(ctx, decomposition, modules, offsets, total, x0, gx0, ids_at, lowering)


@dataclass
class InvariantSpace:
    ids: list                  # global ids of its twisted weight: the local coordinates
    dimension: int             # of the invariant preimage modulo the boundary
    solution_basis: list       # local vectors spanning the invariant preimage in V,
                               # solved only when the dimension is positive (else empty)
    boundary: list             # local part already inside g.x0 (0 or 1 vector)


def quotient_candidates(ctx: WeightMonoidContext) -> tuple:
    """The twisted weights where the invariant quotient can be nonzero, in
    sorted order: the members of C = {a_i} + {beta + a_i : beta a positive
    root outside `f_perp`} that lie in the lattice of F.

    A nonzero vector v of twisted weight gamma != 0 is not a highest
    vector, since each summand of V has its highest line at twisted weight
    0; so some e_i v is nonzero.  If v is invariant, e_i v lies in g.x0 at
    twisted weight gamma - a_i, which holds g.x0 only at 0 and at the
    positive roots outside `f_perp`; so gamma is in C.  The quotient lives
    on the lattice of F by definition."""
    simple = ctx.rs.simple_roots
    outside = set(positive_roots(ctx.rs)) - set(ctx.f_perp)
    c = set(simple)
    c.update(tuple(x + y for x, y in zip(beta, a)) for beta in outside for a in simple)
    return tuple(gamma for gamma in sorted(c) if ctx.in_lattice_root(gamma) is not None)


def invariant_quotient_weights(model: AmbientModel, candidates: Optional[tuple] = None) -> dict:
    """For each twisted weight of `candidates` (by default
    `quotient_candidates`) that V holds, the subspace of the quotient of V
    by g.x0 fixed by the isotropy algebra of x0, keyed by the weight's
    simple-root coordinates.  Only nonzero spaces are returned; every
    twisted weight outside `quotient_candidates` has none, by the argument
    given there, and is skipped unsolved."""
    if candidates is None:
        candidates = quotient_candidates(model.ctx)
    out = {}
    for gamma in candidates:
        if gamma in model.ids_at:
            space = _invariant_space(model, gamma)
            if space.dimension > 0:
                out[gamma] = space
    return out


def _invariant_space(model: AmbientModel, gamma: tuple) -> InvariantSpace:
    """Vectors of twisted weight gamma, in the local coordinates of
    `model.ids_at[gamma]`, that every required operator sends into g.x0.

    The unknowns are the coordinates and one coefficient per g.x0 vector
    that an operator may land on; the preimage is the projection of the
    kernel onto the coordinates.  That projection is injective, because
    the g.x0 vectors that one operator may land on are independent, and
    the boundary lies in the preimage, because the required operators kill
    x0 and so map g.x0 into itself.  So the dimension modulo the boundary
    is cols - rank - len(boundary), and a zero space is decided by one
    rank, with no kernel solved."""
    ctx = model.ctx
    rs = ctx.rs
    ids = model.ids_at[gamma]
    m = len(ids)
    # each coordinate as (its summand, the summand's offset, its id in that module)
    located = []
    for gid in ids:
        k = bisect_right(model.offsets, gid) - 1
        located.append((k, model.offsets[k], gid - model.offsets[k]))

    # Required operators: all simple raisings, and the lowerings of simple
    # roots orthogonal to every basis weight, each with its simple table in
    # every module, whose columns are read as they stand.
    simple = rs.simple_roots
    ops = [(simple[i], [mod.raise_[i] for mod in model.modules]) for i in range(rs.rank)]
    ops += [(neg(simple[i]), [mod.lower[i] for mod in model.modules]) for i in sorted(ctx.sp_gamma)]

    # Unknowns: the m coordinates, then one coefficient per allowed g.x0
    # vector of each operator.  One equation per (operator, touched coordinate).
    equations = []
    cols = m
    for root, tables in ops:
        allowed = model.gx0_at(sub(gamma, root))
        touched: dict = {}
        for c, (k, off, local) in enumerate(located):
            for t, val in tables[k].get(local, ()):
                touched.setdefault(off + t, {})[c] = val
        for a, av in enumerate(allowed):
            for coord, val in av.items():
                touched.setdefault(coord, {})[cols + a] = -val
        cols += len(allowed)
        equations += touched.values()
    rows = [[eq.get(c, 0) for c in range(cols)] for eq in equations]
    boundary = [[vec.get(gid, 0) for gid in ids] for vec in model.gx0_at(gamma)]
    dimension = cols - len(linalg.Echelon(rows)) - len(boundary)
    # the projection is injective, so the projected kernel basis is a basis
    solution = [kv[:m] for kv in linalg.nullspace(rows, cols)] if dimension > 0 else []
    return InvariantSpace(ids=ids, dimension=dimension, solution_basis=solution,
                          boundary=boundary)


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
                allowed = [[int(p == q) for q in range(m)]
                           for p, gid in enumerate(space.ids) if lo <= gid < hi]
                allowed += space.boundary
                surviving = linalg.span_intersection(surviving, allowed)
            if not surviving:
                break
        dim = len(linalg.reduce_mod(space.boundary, surviving))
        if dim >= 1:
            weights[gamma] = dim
    return OracleReport(weights=weights)


def oracle_report(ctx: WeightMonoidContext, dim_cap: int = 5000) -> OracleReport:
    """The oracle's tangent weights of a context: those of
    `oracle_tangent_weights` on the full quotient, with less work.  A
    candidate of `quotient_candidates` with a coefficient above 1 on a
    codimension-one degeneration is dropped unsolved, since the extension
    filter empties it.  When no candidate is left the report is empty and
    no model is built, but the Weyl dimension of each basis weight is still
    held to dim_cap, in basis order; otherwise `build_irrep` holds it, in
    the same order (`DimensionBudgetExceeded` names the first offender
    either way)."""
    codim1 = codim1_orbit_weights(ctx)
    candidates = tuple(gamma for gamma in quotient_candidates(ctx)
                       if all(ctx.in_lattice_root(gamma)[k] <= 1 for k in codim1))
    if not candidates:
        for lam in ctx.basis:
            capped_dimension(ctx.rs, lam, dim_cap)
        return OracleReport(weights={})
    model = build_model(ctx, dim_cap=dim_cap)
    return oracle_tangent_weights(model, invariant_quotient_weights(model, candidates))
