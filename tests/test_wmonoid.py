import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley_reference import coroot_weight_pairing
from sphmoduli import (
    DependentBasis,
    NonDominantWeight,
    build_context,
    build_root_system,
    positive_roots,
    spherical_root_catalog,
)
from wmonoid_reference import reference_in_lattice


def test_crossed_lines_context_basics(crossed_lines):
    assert crossed_lines.sp_gamma == frozenset()
    assert crossed_lines.in_lattice_root((1, 0)) == (1, 0)      # a1 = F0
    assert crossed_lines.in_lattice_root((0, 1)) == (-2, 1)     # a2 = F1 - 2 F0
    assert crossed_lines.in_lattice((1, 0)) is None             # the fundamental weight itself


def test_crossed_lines_coroot_functionals(crossed_lines):
    assert crossed_lines.coroots[0] == (2, 4)
    assert crossed_lines.coroots[1] == (0, 2)


def test_crossed_lines_color_functionals(crossed_lines):
    assert crossed_lines.colors[0] == ((1, 0), (1, 4))
    assert crossed_lines.colors[1] == ((0, 1),)


def test_sl2_color_functionals(sl2_even):
    # a = F0, and coroot - dual = dual, so the set collapses to one element
    assert sl2_even.colors[0] == ((1,),)


def test_color_functionals_requires_lattice_membership():
    # neither simple root lies in the lattice: the context still builds, with
    # no color functionals, and each simple root's colors read None
    ctx = build_context(build_root_system("A2"), [(1, 0)])
    assert ctx.colors == (None, None)
    assert set(ctx.cones) == set(ctx.coroots)


def test_non_dominant_weight_reports_index():
    rs = build_root_system("A2")
    with pytest.raises(NonDominantWeight) as err:
        build_context(rs, [(1, 0), (0, -1)])
    assert err.value.index == 1


def test_dependent_basis_rejected():
    rs = build_root_system("A2")
    with pytest.raises(DependentBasis):
        build_context(rs, [(1, 0), (2, 0)])


def test_single_weight_parabolic():
    ctx = build_context(build_root_system("A2"), [(1, 0)])
    assert ctx.sp_gamma == frozenset({1})


def test_dual_basis_property(battery):
    for _, ctx in battery:
        for j, lam in enumerate(ctx.basis):
            coeffs = ctx.in_lattice(lam)
            assert coeffs == tuple(1 if k == j else 0 for k in range(ctx.r))
            for k, f in enumerate(ctx.dual_basis):
                assert sum(a * c for a, c in zip(f, coeffs)) == (1 if k == j else 0)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_lattice_reconstruction(coeffs):
    ctx = build_context(build_root_system("A1xA1"), [(2, 0), (4, 2)])
    w = tuple(
        sum(c * lam[i] for c, lam in zip(coeffs, ctx.basis)) for i in range(2)
    )
    assert ctx.in_lattice(w) == tuple(coeffs)


def test_lattice_membership_is_exact(crossed_lines):
    # coefficients (1/2, 0) are rational but not integral
    assert crossed_lines.in_lattice((1, 0)) is None
    assert crossed_lines.in_lattice((3, 1)) is None


def test_f_perp_support_characterization(battery):
    # f_perp is read off supports; check it against its definition, the
    # positive roots whose coroot pairs to zero with every basis weight
    for _, ctx in battery:
        perp = set(ctx.f_perp)
        for beta in positive_roots(ctx.rs):
            expected = all(coroot_weight_pairing(ctx.rs, beta, w) == 0 for w in ctx.basis)
            assert (beta in perp) == expected


def test_f_perp_example_b3():
    ctx = build_context(build_root_system("B3"), [(0, 0, 2)])
    assert ctx.sp_gamma == frozenset({0, 1})
    assert set(ctx.f_perp) == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_color_functional_values_are_one_on_the_root():
    # every member evaluates to 1 against the lattice coefficients of its root
    cases = [
        ("A1xA1", [(2, 0), (4, 2)]),
        ("A2", [(1, 1)]),
        ("A3", [(0, 2, 0), (1, 0, 0), (2, 0, 1)]),
    ]
    for group, basis in cases:
        rs = build_root_system(group)
        ctx = build_context(rs, basis)
        for i in range(ctx.n):
            coeffs = ctx.in_lattice_root(tuple(1 if j == i else 0 for j in range(ctx.n)))
            if coeffs is None:
                continue
            for f in ctx.colors[i]:
                assert sum(a * c for a, c in zip(f, coeffs)) == 1


def test_color_functionals_can_exceed_two():
    # a2 = F0 + F1 - F2 here, with the coroot equal to twice the first dual
    # functional; the defining conditions then admit three distinct members
    ctx = build_context(build_root_system("A3"), [(0, 2, 0), (1, 0, 0), (2, 0, 1)])
    values = ctx.colors[1]
    assert len(values) == 3
    assert (2, -1, 0) in values


def test_empty_basis_context():
    ctx = build_context(build_root_system("B3"), [])
    assert ctx.sp_gamma == frozenset({0, 1, 2})
    assert ctx.in_lattice((0, 0, 0)) == ()
    assert ctx.in_lattice((1, 0, 0)) is None
    assert len(ctx.f_perp) == 9


# Beside the criterion-2 battery: contexts with r < n, deep groups and the
# empty basis, for the differential test of lattice membership.
LATTICE_CONTEXTS = [
    ("A3", [(1, 0, 1)]),
    ("B3", [(0, 0, 2)]),
    ("C3", [(0, 2, 0), (1, 0, 1)]),
    ("G2", [(2, 1)]),
    ("F4", [(1, 0, 0, 0), (0, 0, 0, 1)]),
    ("E6", [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0)]),
    ("B3", []),
    ("A2", []),
]


@pytest.fixture(scope="module")
def lattice_contexts(battery):
    named = [build_context(build_root_system(g), basis) for g, basis in LATTICE_CONTEXTS]
    return [ctx for _, ctx in battery] + named


def test_in_lattice_matches_reference_on_catalog_roots(lattice_contexts):
    assert any(ctx.r < ctx.n for ctx in lattice_contexts)
    assert any(ctx.r == 0 for ctx in lattice_contexts)
    for ctx in lattice_contexts:
        for root in spherical_root_catalog(ctx.rs):
            w = ctx.rs.root_to_weight(root.coords)
            expected = reference_in_lattice(ctx, w)
            assert ctx.in_lattice(w) == expected, (ctx, root.coords)
            assert ctx.in_lattice_root(root.coords) == expected
        for lam in ctx.basis:
            assert ctx.in_lattice(lam) == reference_in_lattice(ctx, lam)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_in_lattice_matches_reference_on_integer_weights(lattice_contexts, data):
    ctx = data.draw(st.sampled_from(lattice_contexts))
    w = data.draw(st.tuples(*[st.integers(-6, 6)] * ctx.n))
    assert ctx.in_lattice(w) == reference_in_lattice(ctx, w)


def test_in_lattice_matches_reference_in_the_crossed_lines(crossed_lines):
    for w in ((1, 0), (2, 0), (0, 2), (3, 1), (4, 2), (-2, 2), (6, 2), (0, 0)):
        assert crossed_lines.in_lattice(w) == reference_in_lattice(crossed_lines, w), w


def test_in_lattice_rejects_a_weight_of_the_wrong_length(lattice_contexts):
    for ctx in lattice_contexts:
        for length in (ctx.n - 1, ctx.n + 1):
            with pytest.raises(ValueError):
                ctx.in_lattice((0,) * length)
