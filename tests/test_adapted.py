import ast
import random
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapted_reference import (
    independent_subsets,
    reference_n_adapted_subset,
    reference_n_adapted_subsets,
)
from conftest import catalog_by_name
from sphmoduli import (
    adapted,
    linalg,
    LatticeMembershipError,
    build_context,
    build_root_system,
    check_span_closure,
    check_system_axioms,
    enumerate_n_adapted_subsets,
    is_adapted_singleton,
    is_adapted_subset,
    is_n_adapted_singleton,
    is_n_adapted_subset,
    spherical_root_catalog,
    tangent_space,
)
from sphmoduli.adapted import (
    COND_COLOR_COUNT,
    COND_COROOT_MATCH,
    COND_HALF_LATTICE,
    COND_RAYS,
    SearchBudgetExceeded,
    _member_facts,
)
from sphmoduli.sphroots import KIND_DOUBLE, KIND_SIMPLE


def test_sl2_simple_root_adapted_but_not_strictly(sl2_even):
    cat = catalog_by_name(sl2_even.rs)
    assert is_adapted_singleton(sl2_even, cat["a1"]).ok
    v = is_n_adapted_singleton(sl2_even, cat["a1"])
    assert not v.ok and v.failed == COND_COLOR_COUNT


def test_sl2_double_root(sl2_even):
    cat = catalog_by_name(sl2_even.rs)
    v = is_adapted_singleton(sl2_even, cat["2*a1"])
    assert not v.ok and v.failed == COND_HALF_LATTICE
    assert is_n_adapted_singleton(sl2_even, cat["2*a1"]).ok


def test_crossed_lines_singletons(crossed_lines):
    cat = catalog_by_name(crossed_lines.rs)
    assert is_n_adapted_singleton(crossed_lines, cat["a1"]).ok
    assert is_n_adapted_singleton(crossed_lines, cat["2*a2"]).ok
    v = is_n_adapted_singleton(crossed_lines, cat["a2"])
    assert not v.ok and v.failed == COND_COLOR_COUNT
    v = is_adapted_singleton(crossed_lines, cat["a1+a2"])
    assert not v.ok and v.failed == COND_COROOT_MATCH
    v = is_n_adapted_singleton(crossed_lines, cat["2*a1"])
    assert not v.ok and v.failed == COND_RAYS


def test_crossed_lines_tangent_space(crossed_lines):
    rep = tangent_space(crossed_lines)
    assert rep.dimension == 2
    assert rep.weight_coords() == {(1, 0), (0, 2)}


def test_sl2_tangent_space(sl2_even):
    rep = tangent_space(sl2_even)
    assert rep.dimension == 1
    assert rep.weight_coords() == {(2,)}


def test_zero_lattice_tangent():
    ctx = build_context(build_root_system("B3"), [])
    rep = tangent_space(ctx)
    assert rep.dimension == 0
    assert all(tag == "not_in_lattice" for _, tag in rep.rejected)


def test_a2_sum_is_n_adapted():
    ctx = build_context(build_root_system("A2"), [(1, 0), (0, 1)])
    rep = tangent_space(ctx)
    assert (1, 1) in rep.weight_coords()


# -- abstract axiom checks ----------------------------------------------------


def test_axioms_empty_system_vacuous():
    rs = build_root_system("A2")
    check = check_system_axioms(rs, set(), [], {})
    assert check.ok


def test_axioms_a2_forces_split():
    rs = build_root_system("A1")
    (alpha,) = [r for r in spherical_root_catalog(rs) if r.coords == (1,)]
    good = check_system_axioms(rs, set(), [alpha], {"D+": (1,), "D-": (1,)})
    assert good.verdicts["A2"]
    bad = check_system_axioms(rs, set(), [alpha], {"D+": (2,), "D-": (0,)})
    assert not bad.verdicts["A1"]
    assert not bad.verdicts["A2"]


def test_axioms_sigma1_fails_on_adjacent_double():
    rs = build_root_system("A2")
    cat = {r.coords: r for r in spherical_root_catalog(rs)}
    sigma = [cat[(2, 0)], cat[(0, 1)]]
    check = check_system_axioms(rs, set(), sigma, {"D+": (0, 1), "D-": (0, 1)})
    assert not check.verdicts["Sigma1"]


def test_axioms_malformed_pairing():
    rs = build_root_system("A1")
    (alpha,) = [r for r in spherical_root_catalog(rs) if r.coords == (1,)]
    with pytest.raises(ValueError):
        check_system_axioms(rs, set(), [alpha], {"D+": (1, 1)})


# -- subset-level checks ------------------------------------------------------


def test_empty_subset_adapted_everywhere(battery):
    for _, ctx in battery:
        assert is_adapted_subset(ctx, []).ok
        assert is_n_adapted_subset(ctx, []).ok


def test_crossed_lines_subsets(crossed_lines):
    cat = catalog_by_name(crossed_lines.rs)
    assert is_adapted_subset(crossed_lines, [cat["a1"]]).ok
    assert is_n_adapted_subset(crossed_lines, [cat["a1"]]).ok
    assert is_n_adapted_subset(crossed_lines, [cat["2*a2"]]).ok
    assert not is_n_adapted_subset(crossed_lines, [cat["a1"], cat["2*a2"]]).ok
    assert not is_n_adapted_subset(crossed_lines, [cat["a2"]]).ok


def test_subset_without_color_partition_fails_only_a2():
    # each simple root is an adapted singleton, but no identification of
    # their color tokens gives each exactly two colors pairing to 1
    ctx = build_context(build_root_system("A1xA1"), [(0, 2), (2, 2)])
    cat = catalog_by_name(ctx.rs)
    assert is_adapted_subset(ctx, [cat["a1"]]).ok
    assert is_adapted_subset(ctx, [cat["a2"]]).ok
    check = is_adapted_subset(ctx, [cat["a1"], cat["a2"]])
    assert not check.ok
    assert [k for k, ok in check.verdicts.items() if not ok] == ["A2"]


def test_crossed_lines_component_candidates(crossed_lines):
    records = enumerate_n_adapted_subsets(crossed_lines)
    maximal = [rec for rec in records if rec.maximal]
    assert len(maximal) == 2
    assert all(rec.dimension == 1 for rec in maximal)
    found = {tuple(r.coords for r in rec.roots) for rec in maximal}
    assert found == {((1, 0),), ((0, 2),)}


def test_sl2_component_candidate(sl2_even):
    records = enumerate_n_adapted_subsets(sl2_even)
    maximal = [rec for rec in records if rec.maximal]
    assert [tuple(r.coords for r in rec.roots) for rec in maximal] == [((2,),)]


def test_point_only_component():
    ctx = build_context(build_root_system("B3"), [])
    records = enumerate_n_adapted_subsets(ctx)
    assert len(records) == 1
    assert records[0].roots == () and records[0].maximal


def test_enumerate_rejects_oversized_request(crossed_lines):
    with pytest.raises(ValueError):
        enumerate_n_adapted_subsets(crossed_lines, max_size=5)


def test_enumerate_budget(crossed_lines):
    with pytest.raises(SearchBudgetExceeded) as err:
        enumerate_n_adapted_subsets(crossed_lines, budget=2)
    assert err.value.partial is not None


def test_singleton_vs_subset_consistency(battery):
    # the two formulations must agree on every catalog root
    for _, ctx in battery:
        for root in spherical_root_catalog(ctx.rs):
            single = is_n_adapted_singleton(ctx, root).ok
            subset = is_n_adapted_subset(ctx, [root]).ok
            assert single == subset, (ctx, root.name())


def test_alpha_and_double_never_both_strict(battery):
    for _, ctx in battery:
        cat = {r.coords: r for r in spherical_root_catalog(ctx.rs)}
        for i in range(ctx.n):
            single = tuple(1 if j == i else 0 for j in range(ctx.n))
            double = tuple(2 if j == i else 0 for j in range(ctx.n))
            both = (
                is_n_adapted_singleton(ctx, cat[single]).ok
                and is_n_adapted_singleton(ctx, cat[double]).ok
            )
            assert not both


def test_verdicts_stable_under_basis_permutation(battery):
    for _, ctx in battery:
        if ctx.r < 2:
            continue
        permuted = build_context(ctx.rs, list(reversed(ctx.basis)))
        for root in spherical_root_catalog(ctx.rs):
            assert (
                is_n_adapted_singleton(ctx, root).ok
                == is_n_adapted_singleton(permuted, root).ok
            )
            assert (
                is_adapted_singleton(ctx, root).ok
                == is_adapted_singleton(permuted, root).ok
            )


def test_span_closure_crossed_lines(crossed_lines):
    cat = catalog_by_name(crossed_lines.rs)
    assert check_span_closure(crossed_lines, [cat["a1"]])
    assert check_span_closure(crossed_lines, [])
    assert check_span_closure(crossed_lines, [cat["a1"], cat["2*a2"]])


def test_span_closure_precondition(crossed_lines):
    cat = catalog_by_name(crossed_lines.rs)
    with pytest.raises(ValueError):
        check_span_closure(crossed_lines, [cat["a2"]])


def test_span_closure_on_full_weight_sets(battery):
    for _, ctx in battery:
        weights = tangent_space(ctx).weights
        assert check_span_closure(ctx, weights)


@pytest.fixture(scope="module")
def shared_color_ctx():
    # a(a1) = {e1, e1+e2} and a(a3) = {e3, e1} share the first dual
    # functional, so the two simple roots must share one abstract color
    return build_context(build_root_system("A3"), [(2, 0, 1), (1, 1, 0), (0, 1, 1)])


def test_shared_color_functionals(shared_color_ctx):
    ctx = shared_color_ctx
    a1 = set(ctx.color_functionals(0))
    a3 = set(ctx.color_functionals(2))
    assert a1 & a3 == {(1, 0, 0)}


def test_shared_color_pair_is_adapted(shared_color_ctx):
    ctx = shared_color_ctx
    cat = catalog_by_name(ctx.rs)
    sigma = [cat["a1"], cat["a3"]]
    assert is_adapted_subset(ctx, sigma).ok
    assert is_n_adapted_subset(ctx, sigma).ok
    # the pairing holds one color per distinct functional, so a1 and a3
    # share the color (1, 0, 0); with one color per token both copies of
    # (1, 0, 0) pair to 1 with a1, which then has three colors and fails A2
    coeffs = [ctx.in_lattice_root(r.coords) for r in sigma]
    tokens = [(k, f) for k, i in enumerate((0, 2)) for f in ctx.color_functionals(i)]

    def pairing(f):
        return tuple(sum(a * c for a, c in zip(f, cs)) for cs in coeffs)

    merged = check_system_axioms(ctx.rs, ctx.sp_gamma, sigma,
                                 {f: pairing(f) for _, f in tokens})
    assert len({f for _, f in tokens}) == 3
    assert merged.verdicts["A2"] and merged.verdicts["A3"]
    single = check_system_axioms(ctx.rs, ctx.sp_gamma, sigma,
                                 {t: pairing(t[1]) for t in tokens})
    assert single.verdicts["A3"] and not single.verdicts["A2"]


def test_cone_conditions_skip_simple_member_coroots():
    # a1 = F0 - F1 + 2 F2 with colors (-1, 0, 1) and (1, 0, 0); its coroot
    # restricts to e3, the only functional with the ray at F2, but a simple
    # member's colors are its two tokens, not its coroot
    ctx = build_context(build_root_system("A3"), [(0, 0, 1), (0, 1, 1), (1, 0, 0)])
    cat = catalog_by_name(ctx.rs)
    assert ctx.in_lattice_root(cat["a1"].coords) == (1, -1, 2)
    assert ctx.color_functionals(0) == ((-1, 0, 1), (1, 0, 0))
    assert ctx.coroots[0] == (0, 0, 1)
    v = is_adapted_subset(ctx, [cat["a1"]]).verdicts
    assert not v["rays"] and not v["dual_cone"]
    assert all(v[name] for name in ("A1", "A2", "A3", "Sigma1", "Sigma2", "S", "sigma1", "sigma2"))


def test_shared_color_component(shared_color_ctx):
    records = enumerate_n_adapted_subsets(shared_color_ctx)
    maximal = [rec for rec in records if rec.maximal]
    assert len(maximal) == 1
    assert {r.name() for r in maximal[0].roots} == {"a1", "a3"}
    assert check_span_closure(shared_color_ctx, maximal[0].roots)


def _grid_contexts(group, max_coord, max_r):
    from itertools import combinations
    rs = build_root_system(group)
    vectors = [v for v in product(range(max_coord + 1), repeat=rs.rank) if any(v)]
    out = []
    for r in range(1, max_r + 1):
        for combo in combinations(vectors, r):
            try:
                out.append(build_context(rs, list(combo)))
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("group,max_coord,max_r", [
    ("A1", 4, 1), ("A1xA1", 2, 2), ("A2", 2, 2), ("B2", 2, 2), ("G2", 1, 2),
])
def test_consistency_exhaustive_grid(group, max_coord, max_r):
    # every dominant basis with bounded coordinates, not just random samples
    for ctx in _grid_contexts(group, max_coord, max_r):
        for root in spherical_root_catalog(ctx.rs):
            assert (is_n_adapted_singleton(ctx, root).ok
                    == is_n_adapted_subset(ctx, [root]).ok), (ctx.basis, root.name())


def _reference_colors(ctx, i):
    """color_functionals(i) from its definition, without the context's
    tables: e_k and coroot - e_k for each k where a_i has coefficient 1."""
    rs = ctx.rs
    coeffs = ctx.in_lattice(tuple(rs.cartan[j][i] for j in range(rs.rank)))
    if coeffs is None:
        return None
    coroot = tuple(w[i] for w in ctx.basis)
    found = set()
    for k, c in enumerate(coeffs):
        if c == 1:
            e = tuple(int(j == k) for j in range(ctx.r))
            found |= {e, tuple(a - b for a, b in zip(coroot, e))}
    return sorted(found)


def _rays(f):
    """The k at which f is the only nonzero value, when that value is positive."""
    return {k for k in range(len(f)) if f[k] > 0 and not any(f[:k] + f[k + 1:])}


def _check_tables(ctx):
    """Every simple-root attribute and memo entry of the context against its
    definition."""
    rs = ctx.rs
    colors = [_reference_colors(ctx, i) for i in range(rs.rank)]
    functionals = set()
    for i in range(rs.rank):
        coroot = tuple(w[i] for w in ctx.basis)
        assert ctx.coroots[i] == coroot
        assert ctx.cones[coroot] == (_rays(coroot), True)
        functionals.add(coroot)
        if colors[i] is None:
            with pytest.raises(LatticeMembershipError):
                ctx.color_functionals(i)
            continue
        assert list(ctx.color_functionals(i)) == colors[i]
        assert all(type(v) is int for f in ctx.color_functionals(i) for v in f)
        for f in colors[i]:
            assert ctx.cones[f] == (_rays(f), min(f) >= 0)
            functionals.add(f)
    assert set(ctx.cones) == functionals
    for root in spherical_root_catalog(rs):
        weight = tuple(sum(a * c for a, c in zip(row, root.coords)) for row in rs.cartan)
        for i in range(rs.rank):
            assert rs.pairing(i, root.coords) == weight[i]
        coeffs = ctx.in_lattice(weight)
        assert ctx.in_lattice_root(root.coords) == coeffs
        assert coeffs is None or all(type(c) is int for c in coeffs)


def _table_contexts(name):
    """The crossed lines, or every basis with coordinates up to max_coord,
    taking every stride-th (the grids are ordered by basis size)."""
    if name == "crossed lines":
        return [build_context(build_root_system("A1xA1"), [(2, 0), (4, 2)])]
    group, max_coord, stride = name.split(":")
    rank = build_root_system(group).rank
    return _grid_contexts(group, int(max_coord), rank)[::int(stride)]


# On rank 3 every 7th of the 56 {0,1} bases: the whole grids would make this
# the slowest test of the suite.
@pytest.mark.parametrize("name", [
    "crossed lines", "A2:2:1", "B2:2:1", "G2:2:1", "A3:1:7", "C3:1:7",
])
def test_context_tables_match_fresh_contexts(name):
    # a context whose tables were filled by a whole walk decides every small
    # subset, in shuffled order, as a fresh context does
    from itertools import combinations
    rng = random.Random(name)
    for ctx in _table_contexts(name):
        _check_tables(ctx)
        catalog = spherical_root_catalog(ctx.rs)
        subsets = [s for size in range(4) for s in combinations(catalog, size)]
        enumerate_n_adapted_subsets(ctx)
        rng.shuffle(subsets)
        for sigma in subsets:
            fresh_ctx = build_context(ctx.rs, ctx.basis)
            shared = is_adapted_subset(ctx, sigma)
            fresh = is_adapted_subset(fresh_ctx, sigma)
            assert shared.verdicts == fresh.verdicts, (ctx, sigma)
            shared = is_n_adapted_subset(ctx, sigma)
            fresh = is_n_adapted_subset(fresh_ctx, sigma)
            assert (shared.ok, shared.witness) == (fresh.ok, fresh.witness), (ctx, sigma)
        _check_tables(ctx)


# -- the halving choice against the exhaustive reference ---------------------


def _decision_contexts(name):
    """The crossed lines, A1xA1xA1 with F = (2w1, 2w2, 2w3), or the empty
    basis and every independent basis with coordinates up to max_coord."""
    if name == "crossed lines":
        return [build_context(build_root_system("A1xA1"), [(2, 0), (4, 2)])]
    if name == "A1xA1xA1 2w":
        return [build_context(build_root_system("A1xA1xA1"), [(2, 0, 0), (0, 2, 0), (0, 0, 2)])]
    group, max_coord = name.split(":")
    rs = build_root_system(group)
    return [build_context(rs, [])] + _grid_contexts(group, int(max_coord), rs.rank)


def _assert_matches_reference(ctx, max_size=3):
    from itertools import combinations
    catalog = spherical_root_catalog(ctx.rs)
    for size in range(max_size + 1):
        for sigma in combinations(catalog, size):
            got = is_n_adapted_subset(ctx, sigma)
            want = reference_n_adapted_subset(ctx, sigma)
            assert (got.ok, got.witness) == (want.ok, want.witness), (ctx, sigma)


@pytest.mark.parametrize("name", [
    "crossed lines", "A1:6", "A1xA1:2", "A2:2", "B2:2", "G2:2", "A1xA1xA1 2w",
])
def test_n_adapted_subset_matches_reference(name):
    # every catalog subset of size <= 3, dependent ones included
    for ctx in _decision_contexts(name):
        _assert_matches_reference(ctx)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A1xA1", "A2", "B2", "G2"]),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any),
                min_size=1, max_size=2, unique=True))
def test_n_adapted_subset_matches_reference_on_random_bases(group, basis):
    try:
        ctx = build_context(build_root_system(group), basis)
    except ValueError:
        return
    _assert_matches_reference(ctx)


def test_single_color_simple_member_needs_no_adapted_check(monkeypatch):
    # with F = 2w_i each a_i has the single color functional e_i, so no
    # member of a candidate maps to a_i and the set is rejected outright
    ctx = build_context(build_root_system("A1xA1xA1"), [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert [len(c) for c in ctx.colors] == [1, 1, 1]
    cat = catalog_by_name(ctx.rs)
    calls = []
    original = adapted.is_adapted_subset
    monkeypatch.setattr(adapted, "is_adapted_subset",
                        lambda ctx, sigma: calls.append(sigma) or original(ctx, sigma))
    for sigma in ([cat["a1"]], [cat["a1"], cat["2*a2"]]):
        assert is_n_adapted_subset(ctx, sigma) == adapted.NAdaptedVerdict(False)
    assert calls == []
    assert is_n_adapted_subset(ctx, [cat["2*a1"]]).ok
    assert len(calls) == 1


def test_all_doubled_members_halved_witness():
    ctx = build_context(build_root_system("A1xA1xA1"), [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    cat = catalog_by_name(ctx.rs)
    verdict = is_n_adapted_subset(ctx, [cat["2*a1"], cat["2*a2"], cat["2*a3"]])
    assert verdict.ok
    assert [r.name() for r in verdict.witness] == ["a3", "a2", "a1"]


DIGEST = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"

# The five contexts of the benchmark's `subsets` workload (perfbench/corpus.py).
SUBSETS_CONTEXTS = (
    ("A1xA1xA1", [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
    ("A1xA1xA1xA1", [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]),
    ("A3xA1", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    ("A4", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    ("C4", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
)


def _decision_grids():
    """The DECISION_GRIDS tuple of the report digest, read from its source."""
    for node in ast.parse(DIGEST.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["DECISION_GRIDS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no DECISION_GRIDS in {DIGEST}")


def _walk_contexts(name):
    """Every independent basis (the empty one included) of one digest grid,
    or one context of the subsets workload."""
    rs = build_root_system(name)
    if name in dict(SUBSETS_CONTEXTS):
        return [build_context(rs, dict(SUBSETS_CONTEXTS)[name])]
    max_coord = dict(_decision_grids())[name]
    vectors = [v for v in product(range(max_coord + 1), repeat=rs.rank) if any(v)]
    out = []
    for basis in (b for r in range(rs.rank + 1) for b in combinations(vectors, r)):
        try:
            out.append(build_context(rs, list(basis)))
        except ValueError:
            pass
    return out


WALK_CONTEXTS = [g for g, _ in _decision_grids()] + [g for g, _ in SUBSETS_CONTEXTS]


@pytest.mark.parametrize("name", WALK_CONTEXTS)
def test_walk_matches_exhaustive_reference(name):
    for ctx in _walk_contexts(name):
        got = [(rec.roots, rec.maximal) for rec in enumerate_n_adapted_subsets(ctx)]
        want = [(rec.roots, rec.maximal) for rec in reference_n_adapted_subsets(ctx)]
        assert got == want, ctx


def _may_sit_in_n_adapted_set(ctx, root):
    """The walk's rule, stated on its own: a simple root needs exactly two
    color functionals, a doubled root whose half has one is kept, and every
    other root must lie in the lattice."""
    colors = ctx.colors[root.simple_index] if root.kind in (KIND_SIMPLE, KIND_DOUBLE) else None
    if root.kind == KIND_SIMPLE:
        return colors is not None and len(colors) == 2
    if root.kind == KIND_DOUBLE and colors is not None and len(colors) == 1:
        return True
    return ctx.in_lattice_root(root.coords) is not None


@pytest.mark.parametrize("name", WALK_CONTEXTS)
def test_walk_drops_only_roots_no_n_adapted_set_holds(name):
    # a dropped root is rejected alone and added to every accepted set
    # that stays independent
    for ctx in _walk_contexts(name):
        catalog = spherical_root_catalog(ctx.rs)
        dropped = [r for r in catalog if not _may_sit_in_n_adapted_set(ctx, r)]
        assert dropped == [r for r in catalog if _member_facts(ctx, r).exit], ctx
        accepted = [rec.roots for rec in enumerate_n_adapted_subsets(ctx)]
        for root in dropped:
            for sigma in accepted:
                if len(linalg.Echelon([r.coords for r in sigma + (root,)])) == len(sigma) + 1:
                    assert not is_n_adapted_subset(ctx, sigma + (root,)).ok, (ctx, sigma, root)
        assert all(not is_n_adapted_subset(ctx, [root]).ok for root in dropped), ctx


def test_walk_budget_counts_steps_over_kept_roots():
    # A1xA1xA1 with F = 2w_i: the three simple roots have one color each
    # and are dropped, so the walk steps over the 6 other roots only
    ctx = build_context(build_root_system("A1xA1xA1"), [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    kept = [r for r in spherical_root_catalog(ctx.rs) if not _member_facts(ctx, r).exit]
    assert [r.name() for r in kept] == ["2*a3", "a2+a3", "2*a2", "a1+a3", "a1+a2", "2*a1"]
    steps = len(independent_subsets(kept, ctx.r))
    enumerate_n_adapted_subsets(ctx, budget=steps)
    with pytest.raises(SearchBudgetExceeded, match=f"more than {steps - 1} "):
        enumerate_n_adapted_subsets(ctx, budget=steps - 1)


def test_member_facts_are_memoised_on_the_context():
    ctx = build_context(build_root_system("A1xA1"), [(2, 0), (4, 2)])
    cat = catalog_by_name(ctx.rs)
    facts = _member_facts(ctx, cat["2*a2"])
    assert facts.exit is None and facts.member is cat["a2"]
    assert _member_facts(ctx, cat["2*a2"]) is facts
    assert _member_facts(ctx, cat["a2"]).exit == "one_color"
    assert _member_facts(ctx, cat["2*a1"]).condition == COND_HALF_LATTICE
