from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphmoduli import (
    build_context,
    build_model,
    build_root_system,
    codim1_orbit_weights,
    compatible_with_sp,
    invariant_quotient_weights,
    oracle_report,
    oracle_tangent_weights,
    positive_roots,
    spherical_root_catalog,
    tangent_space,
    weyl_dimension,
)
from sphmoduli import irreps, linalg, oracle
from sphmoduli.oracle import _invariant_space, quotient_candidates
from sphmoduli.rootsys import neg, sub
from sphmoduli.wmonoid import DependentBasis

from conftest import IRREP_DIM_LIMIT
from linalg_reference import reference_nullspace, reference_rank
from rank_one_grid import rank_one_bases


@pytest.fixture(scope="module")
def crossed_lines_model(crossed_lines):
    return build_model(crossed_lines)


def test_crossed_lines_oracle_weights(crossed_lines, crossed_lines_model):
    rep = oracle_tangent_weights(crossed_lines_model)
    assert rep.weights == {(1, 0): 1, (0, 2): 1}
    assert rep.weight_coords() == tangent_space(crossed_lines).weight_coords()


def test_crossed_lines_quotient_contains_simple_root(crossed_lines_model):
    quot = invariant_quotient_weights(crossed_lines_model)
    assert (1, 0) in quot
    assert quot[(1, 0)].dimension == 1
    # the doubled first root shows up in the quotient but not in the tangent
    assert (2, 0) in quot


def test_sl2_oracle(sl2_even):
    model = build_model(sl2_even)
    rep = oracle_tangent_weights(model)
    assert rep.weights == {(2,): 1}


def test_codim1_crossed_lines(crossed_lines):
    assert codim1_orbit_weights(crossed_lines) == frozenset({0})


def test_codim1_sl2(sl2_even):
    assert codim1_orbit_weights(sl2_even) == frozenset()


def test_codim1_flag_like():
    ctx = build_context(build_root_system("A2"), [(1, 0), (0, 1)])
    assert codim1_orbit_weights(ctx) == frozenset()
    # the second weight is the only one touching the second node, so only the
    # first degeneration has codimension one
    ctx2 = build_context(build_root_system("A2"), [(1, 0), (1, 1)])
    assert codim1_orbit_weights(ctx2) == frozenset({0})
    # here every node touched by one weight is touched by the other as well
    ctx3 = build_context(build_root_system("A2"), [(1, 1), (2, 1)])
    assert codim1_orbit_weights(ctx3) == frozenset({0, 1})


def test_base_point_orbit_basis(crossed_lines, crossed_lines_model):
    # the listed spanning vectors are independent and the image of every
    # algebra basis element applied to the base point stays in their span
    model = crossed_lines_model

    def dense(vec):
        return [vec.get(t, Fraction(0)) for t in range(model.dim)]

    zero = (0,) * crossed_lines.rs.rank
    basis = [vec for gamma in (zero, *positive_roots(crossed_lines.rs))
             for vec in model.gx0_at(gamma)]
    rows = [dense(v) for v in basis]
    assert len(linalg.Echelon(rows)) == len(basis)
    expected = crossed_lines.r + len(
        [b for b in positive_roots(crossed_lines.rs) if b not in set(crossed_lines.f_perp)]
    )
    assert len(basis) == expected
    for beta in positive_roots(crossed_lines.rs):
        for signed in (beta, neg(beta)):
            img = model.apply_root(signed, model.x0)
            assert not linalg.Echelon(rows).add(dense(img))
    for i in range(crossed_lines.rs.rank):
        h_img = [Fraction(0)] * model.dim
        for k, lam in enumerate(crossed_lines.basis):
            for t, c in model.gx0_at(zero)[k].items():
                h_img[t] += lam[i] * c
        assert not linalg.Echelon(rows).add(h_img)


def _quotient_properties(ctx):
    model = build_model(ctx)
    quot = invariant_quotient_weights(model)
    catalog = {r.coords: r for r in spherical_root_catalog(ctx.rs)}
    for gamma, space in quot.items():
        root = catalog.get(gamma)
        assert root is not None, f"{gamma} not in the catalog"
        assert compatible_with_sp(root, ctx.sp_gamma)
        if root.kind != "A1":
            assert space.dimension <= 1
        else:
            i = root.simple_index
            p = sum(1 for lam in ctx.basis if lam[i] != 0)
            assert space.dimension == p - 1
    return model, quot


def test_quotient_properties_on_named_contexts(crossed_lines):
    _quotient_properties(crossed_lines)
    _quotient_properties(build_context(build_root_system("A2"), [(1, 0), (0, 1)]))
    _quotient_properties(build_context(build_root_system("B2"), [(2, 0)]))
    _quotient_properties(build_context(build_root_system("A1xA1xA1"), [(2, 2, 0), (0, 2, 2)]))


def test_simple_root_quotient_dimension_counts_nonorthogonal_weights():
    # three weights pairing nontrivially with the same simple root give a
    # two-dimensional invariant quotient there
    ctx = build_context(build_root_system("A3"), [(1, 0, 0), (1, 1, 0), (1, 1, 1)])
    model = build_model(ctx)
    quot = invariant_quotient_weights(model)
    assert quot[(1, 0, 0)].dimension == 2
    # a two-dimensional space at a simple root must not survive to the
    # tangent space (it is cut to at most one dimension)
    rep = oracle_tangent_weights(model)
    assert rep.weights.get((1, 0, 0), 0) <= 1
    assert all(d == 1 for d in rep.weights.values())


def test_extension_filter_strictness(crossed_lines, crossed_lines_model):
    # pairing 2 against the codimension-one degeneration kills the class
    quot = invariant_quotient_weights(crossed_lines_model)
    rep = oracle_tangent_weights(crossed_lines_model, quot)
    assert (2, 0) in quot and (2, 0) not in rep.weights


def test_oracle_empty_basis():
    ctx = build_context(build_root_system("A2"), [])
    model = build_model(ctx)
    assert model.dim == 0
    assert oracle_tangent_weights(model).weights == {}


# One context per catalog row kind, with the tangent weights of the
# corresponding classical rank-one degenerations.
CLASSICAL_CASES = [
    ("A1xA1", [(1, 1)], {(1, 1)}),            # orthogonal pair
    ("A2", [(1, 0), (0, 1)], {(1, 1)}),       # chain sum
    ("A3", [(0, 2, 0)], {(1, 2, 1)}),         # doubled middle node
    ("B3", [(1, 0, 0), (0, 0, 1)], {(1, 1, 1)}),
    ("B3", [(1, 0, 0)], {(2, 2, 2)}),         # doubled B-chain
    ("C3", [(0, 1, 0)], {(1, 2, 1)}),
    ("B3", [(0, 0, 2)], {(1, 2, 3)}),
    ("D4", [(2, 0, 0, 0)], {(2, 2, 1, 1)}),   # fork
    ("F4", [(0, 0, 0, 1)], {(1, 2, 3, 2)}),
    ("G2", [(1, 0)], {(4, 2)}),
    ("G2", [(1, 0), (0, 1)], {(1, 1)}),
]


@pytest.mark.parametrize("group,basis,expected", CLASSICAL_CASES)
def test_classical_rank_one_degenerations(group, basis, expected):
    ctx = build_context(build_root_system(group), basis)
    assert tangent_space(ctx).weight_coords() == expected
    rep = oracle_tangent_weights(build_model(ctx))
    assert rep.weight_coords() == expected
    assert all(d == 1 for d in rep.weights.values())


def test_shared_color_context_agreement():
    # context where two simple tangent weights share an abstract color
    ctx = build_context(build_root_system("A3"), [(2, 0, 1), (1, 1, 0), (0, 1, 1)])
    rep = oracle_tangent_weights(build_model(ctx))
    assert rep.weight_coords() == {(1, 0, 0), (0, 0, 1)}
    assert rep.weight_coords() == tangent_space(ctx).weight_coords()


@pytest.mark.parametrize("group,basis", [
    ("A1xA1", [(2, 0), (2, 2)]),
    ("A2", [(2, 2)]),
    ("A2", [(1, 1), (2, 0)]),
    ("B2", [(0, 2), (1, 0)]),
])
def test_oracle_agreement_spot_checks(group, basis):
    ctx = build_context(build_root_system(group), basis)
    rep = oracle_tangent_weights(build_model(ctx))
    assert rep.weight_coords() == tangent_space(ctx).weight_coords()
    assert all(d == 1 for d in rep.weights.values())


def _fundamentals(rank, nodes):
    return [tuple(1 if j == i - 1 else 0 for j in range(rank)) for i in nodes]


@pytest.mark.parametrize("group,nodes", [
    ("A4", (1, 2, 3, 4)),
    ("B4", (1, 2, 3, 4)),
    ("C4", (1, 2, 3, 4)),
    ("D4", (1, 2, 3, 4)),
    ("F4", (1, 4)),
    ("E6", (1, 6, 2)),
    ("E6", (1, 6)),
    ("F4", (3,)),
    ("E7", (7, 1)),
    ("E8", (8,)),
])
def test_oracle_agreement_beyond_rank_three(group, nodes):
    rs = build_root_system(group)
    ctx = build_context(rs, _fundamentals(rs.rank, nodes))
    rep = oracle_tangent_weights(build_model(ctx))
    assert rep.weight_coords() == tangent_space(ctx).weight_coords()
    assert all(d == 1 for d in rep.weights.values())


_rank_two_weight = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["A1xA1", "A2", "B2", "G2"]),
       st.lists(_rank_two_weight, min_size=1, max_size=2, unique=True))
def test_oracle_agreement_on_random_bases(group, basis):
    # beside the seeded criterion-2 battery: any independent dominant basis
    # with coordinates <= 2 on a rank-two group
    try:
        ctx = build_context(build_root_system(group), basis)
    except DependentBasis:
        assume(False)
    rep = oracle_tangent_weights(build_model(ctx))
    assert rep.weight_coords() == tangent_space(ctx).weight_coords()
    assert all(d == 1 for d in rep.weights.values())


def test_simple_tangent_weights_necessary_conditions(battery):
    # a simple root in the tangent space needs at least two non-orthogonal
    # basis weights and lattice coefficients bounded by one
    for _, ctx in battery:
        for root in tangent_space(ctx).weights:
            if root.kind != "A1":
                continue
            i = root.simple_index
            assert sum(1 for lam in ctx.basis if lam[i] != 0) >= 2
            coeffs = ctx.in_lattice_root(root.coords)
            assert all(c <= 1 for c in coeffs)


@pytest.mark.parametrize("group,basis", [
    ("A1xA1", [(2, 0), (4, 2)]),      # the crossed lines: f_perp is empty
    ("B3", [(1, 0, 0), (0, 0, 1)]),
    ("G2", [(1, 0)]),
])
def test_gx0_keyed_by_twisted_weight(group, basis):
    # g.x0 sits at the zero weight (the highest vectors, one per summand) and
    # at each positive root beta outside f_perp (X_-beta.x0), and nowhere else
    ctx = build_context(build_root_system(group), basis)
    model = build_model(ctx)
    zero = (0,) * ctx.n
    pos = positive_roots(ctx.rs)
    outside = {beta for beta in pos if beta not in set(ctx.f_perp)}
    assert bool(ctx.f_perp) == (group != "A1xA1")
    for gamma in sorted({zero, *pos, *map(neg, pos), *model.ids_at}):
        vecs = model.gx0_at(gamma)
        assert bool(vecs) == (gamma == zero or gamma in outside), gamma
        if vecs:
            assert len(vecs) == (ctx.r if gamma == zero else 1)
        for vec in vecs:
            assert vec and set(vec) <= set(model.ids_at[gamma]), gamma


def _assert_height_cap_drops_nothing(ctx):
    """Solve the invariant space at every nonzero lattice twisted weight of
    the full model: nonzero spaces occur only at `quotient_candidates`, the
    lattice members of C = {a_i} + {beta + a_i : beta positive, outside
    f_perp}, and the quotient is that full solve.  Returns the number of
    solved weights outside C."""
    model = build_model(ctx)
    zero = (0,) * ctx.n
    outside_perp = set(positive_roots(ctx.rs)) - set(ctx.f_perp)
    candidates = set(quotient_candidates(ctx))
    for gamma in candidates:
        assert ctx.in_lattice_root(gamma) is not None, (ctx, gamma)
        assert any(sub(gamma, a) == zero or sub(gamma, a) in outside_perp
                   for a in ctx.rs.simple_roots), (ctx, gamma)
    dims = {gamma: _invariant_space(model, gamma).dimension for gamma in sorted(model.ids_at)
            if any(gamma) and ctx.in_lattice_root(gamma) is not None}
    outside = [gamma for gamma in dims if gamma not in candidates]
    for gamma in outside:
        assert dims[gamma] == 0, (ctx, gamma)
    quot = invariant_quotient_weights(model)
    assert {gamma: space.dimension for gamma, space in quot.items()} == \
        {gamma: d for gamma, d in dims.items() if d}, ctx
    return len(outside)


def test_height_cap_drops_nothing_on_the_battery(battery):
    assert sum(_assert_height_cap_drops_nothing(ctx) for _, ctx in battery) > 0


@pytest.mark.parametrize("group,nodes", [
    ("A4", (1, 2, 3, 4)),
    ("B4", (1, 2, 3, 4)),
    ("C4", (1, 2, 3, 4)),
    ("D4", (1, 2, 3, 4)),
    ("F4", (1, 4)),
    ("F4", (3,)),
])
def test_height_cap_drops_nothing_beyond_rank_three(group, nodes):
    rs = build_root_system(group)
    assert _assert_height_cap_drops_nothing(build_context(rs, _fundamentals(rs.rank, nodes))) > 0


def test_rank_one_grid_two_routes_and_no_model_off_the_candidates(monkeypatch):
    # Jansou's rank-one grid through the oracle's entry point: the same
    # tangent weights as the combinatorial route on every weight, and no
    # model wherever no lattice twisted weight is a candidate
    built = []
    original = oracle.build_model
    monkeypatch.setattr(oracle, "build_model",
                        lambda ctx, dim_cap=5000: built.append(ctx) or original(ctx, dim_cap))
    grid = list(rank_one_bases())
    cap = max(weyl_dimension(rs, lam) for rs, lam in grid)
    for rs, lam in grid:
        ctx = build_context(rs, [lam])
        rep = oracle_report(ctx, dim_cap=cap)
        assert rep.weight_coords() == tangent_space(ctx).weight_coords(), (rs.components, lam)
        assert all(d == 1 for d in rep.weights.values()), (rs.components, lam)
        assert (ctx in built) == bool(quotient_candidates(ctx)), (rs.components, lam)
    assert len(grid) == 1002
    assert len(grid) - len(built) == 957


def _reference_dimension(model, gamma):
    """The invariant space at gamma by a full solve: the equations of every
    required operator, read through `model.apply_root`, their kernel by
    `reference_nullspace`, and the rank of its projection to the
    coordinates modulo the boundary."""
    ctx = model.ctx
    ids = model.ids_at[gamma]
    m = len(ids)
    simple = ctx.rs.simple_roots
    equations = []
    cols = m
    for root in list(simple) + [neg(simple[i]) for i in sorted(ctx.sp_gamma)]:
        allowed = model.gx0_at(sub(gamma, root))
        touched = {}
        for c, gid in enumerate(ids):
            for coord, val in model.apply_root(root, {gid: 1}).items():
                touched.setdefault(coord, {})[c] = val
        for a, vec in enumerate(allowed):
            for coord, val in vec.items():
                touched.setdefault(coord, {})[cols + a] = -val
        cols += len(allowed)
        equations += touched.values()
    rows = [[eq.get(c, 0) for c in range(cols)] for eq in equations]
    preimage = [v[:m] for v in reference_nullspace(rows, cols)]
    boundary = [[vec.get(gid, 0) for gid in ids] for vec in model.gx0_at(gamma)]
    return reference_rank(boundary + preimage) - reference_rank(boundary)


def _assert_rank_test_and_prefilter(ctx):
    """At every nonzero twisted weight of the model, the dimension of the
    rank test is that of the full solve; and `oracle_report`, which drops
    candidates unsolved, reports what the unfiltered path does.  Returns
    the number of weights compared."""
    model = build_model(ctx)
    weights = [gamma for gamma in sorted(model.ids_at) if any(gamma)]
    for gamma in weights:
        assert _invariant_space(model, gamma).dimension == \
            _reference_dimension(model, gamma), (ctx.rs.components, ctx.basis, gamma)
    assert oracle_report(ctx) == \
        oracle_tangent_weights(model, invariant_quotient_weights(model)), ctx.basis
    return len(weights)


def test_rank_test_and_prefilter_on_the_battery(battery):
    assert sum(_assert_rank_test_and_prefilter(ctx) for _, ctx in battery) > 0


@pytest.mark.parametrize("group,coords", [
    ("A1", (0, 1, 2)), ("A1xA1", (0, 1, 2)), ("A2", (0, 1, 2)), ("B2", (0, 1, 2)),
    ("G2", (0, 1, 2)), ("A3", (0, 1)), ("B3", (0, 1)), ("C3", (0, 1)), ("A2xA1", (0, 1)),
])
def test_rank_test_and_prefilter_on_small_grids(group, coords):
    # every independent basis over the coordinates whose modules stay
    # within the battery's dimension limit (that leaves out the bases
    # holding G2 (2,2) or rho of B3 or C3, which would take most of the time)
    rs = build_root_system(group)
    vectors = [v for v in product(coords, repeat=rs.rank)
               if any(v) and weyl_dimension(rs, v) <= IRREP_DIM_LIMIT]
    compared = 0
    for basis in (b for r in range(1, rs.rank + 1) for b in combinations(vectors, r)):
        try:
            ctx = build_context(rs, list(basis))
        except DependentBasis:
            continue
        compared += _assert_rank_test_and_prefilter(ctx)
    assert compared > 0


@pytest.mark.parametrize("group,nodes", [
    ("A4", (1, 2, 3, 4)),
    ("B4", (1, 2, 3, 4)),
    ("C4", (1, 2, 3, 4)),
    ("D4", (1, 2, 3, 4)),
    ("F4", (1, 4)),
    ("F4", (3,)),
])
def test_rank_test_and_prefilter_beyond_rank_three(group, nodes):
    rs = build_root_system(group)
    assert _assert_rank_test_and_prefilter(build_context(rs, _fundamentals(rs.rank, nodes))) > 0


def _count_oracle_work(monkeypatch):
    """Calls of `quotient_candidates`, the highest weights whose Weyl
    dimension is computed, and the contexts given to `build_model`."""
    calls = {"candidates": 0, "weyl": [], "models": []}
    candidates, weyl, model = (oracle.quotient_candidates, irreps.weyl_dimension,
                               oracle.build_model)

    def counting_candidates(ctx):
        calls["candidates"] += 1
        return candidates(ctx)

    monkeypatch.setattr(oracle, "quotient_candidates", counting_candidates)
    monkeypatch.setattr(irreps, "weyl_dimension",
                        lambda rs, lam: calls["weyl"].append(tuple(lam)) or weyl(rs, lam))
    monkeypatch.setattr(oracle, "build_model",
                        lambda ctx, dim_cap=5000: calls["models"].append(ctx) or model(ctx, dim_cap))
    return calls


@pytest.mark.parametrize("group,basis,builds", [
    ("B3", [(1, 0, 0), (0, 0, 1)], True),
    ("E6", [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)], True),
    ("G2", [(2, 1)], False),                            # no candidate in the lattice
    ("A1xA1xA1", [(0, 1, 1), (1, 0, 1), (1, 1, 1)], False),  # every candidate dropped
])
def test_oracle_report_does_each_piece_of_work_once(monkeypatch, group, basis, builds):
    ctx = build_context(build_root_system(group), basis)
    calls = _count_oracle_work(monkeypatch)
    oracle_report(ctx)
    assert calls["candidates"] == 1
    assert calls["weyl"] == list(ctx.basis)
    assert len(calls["models"]) == builds


@pytest.mark.parametrize("basis", [
    [(0, 1, 1), (1, 0, 1), (1, 1, 1)],
    [(0, 1, 1), (1, 1, 0), (1, 1, 1)],
    [(1, 0, 1), (1, 1, 0), (1, 1, 1)],
])
def test_prefilter_builds_no_model_when_every_candidate_is_dropped(monkeypatch, basis):
    # three bases of the sweep corpus: each has nine candidates, and each
    # candidate has a coefficient above 1 on a codimension-one degeneration,
    # so the extension filter would empty every one of them
    ctx = build_context(build_root_system("A1xA1xA1"), basis)
    candidates = quotient_candidates(ctx)
    codim1 = codim1_orbit_weights(ctx)
    assert len(candidates) == 9
    assert all(any(ctx.in_lattice_root(gamma)[k] > 1 for k in codim1) for gamma in candidates)
    calls = _count_oracle_work(monkeypatch)
    assert oracle_report(ctx).weights == {}
    assert calls["models"] == []
    assert oracle_tangent_weights(build_model(ctx)).weights == {}
