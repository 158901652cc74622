from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphmoduli import (
    DimensionBudgetExceeded,
    build_chevalley,
    build_irrep,
    build_model,
    build_root_system,
    freudenthal_multiplicities,
    invariant_quotient_weights,
    linalg,
    positive_roots,
    weyl_dimension,
)
from sphmoduli.irreps import _integral
from sphmoduli.rootsys import neg

from chevalley_reference import build_reference, coroot_weight_pairing
from irreps_reference import reference_irrep


def test_a1_sym_square():
    rs = build_root_system("A1")
    mod = build_irrep(rs, (2,))
    assert mod.dim == 3
    assert Counter(tuple(w) for w in mod.weights) == {(2,): 1, (0,): 1, (-2,): 1}


def test_product_dimension():
    rs = build_root_system("A1xA1")
    assert weyl_dimension(rs, (4, 2)) == 15
    assert build_irrep(rs, (4, 2)).dim == 15


def test_a2_adjoint():
    rs = build_root_system("A2")
    mod = build_irrep(rs, (1, 1))
    assert mod.dim == 8
    mults = Counter(tuple(w) for w in mod.weights)
    assert mults[(0, 0)] == 2


def test_dimension_budget():
    rs = build_root_system("B3")
    with pytest.raises(DimensionBudgetExceeded):
        build_irrep(rs, (2, 2, 2), dim_cap=100)
    # the default cap is generous
    assert build_irrep(rs, (1, 0, 0)).dim == 7


@pytest.mark.parametrize("name,lam", [
    ("A1", (3,)),
    ("A2", (2, 1)),
    ("B2", (1, 1)),
    ("B3", (0, 0, 1)),
    ("C3", (0, 1, 0)),
    ("G2", (1, 0)),
    ("G2", (0, 1)),
    ("A3", (1, 0, 1)),
    ("A1xA1", (2, 3)),
    ("G2", (2, 1)),       # weight multiplicities up to 9
    ("B3", (1, 1, 0)),    # weight multiplicities up to 5
    ("E6", (0, 1, 0, 0, 0, 0)),        # adjoint, zero weight of multiplicity 6
    ("F4", (0, 0, 1, 0)),              # weight multiplicities up to 9
    ("E7", (0, 0, 0, 0, 0, 0, 1)),     # minuscule, 56 weights
])
def test_dimension_and_multiplicities(name, lam):
    rs = build_root_system(name)
    mod = build_irrep(rs, lam)
    assert mod.dim == weyl_dimension(rs, lam)
    freud = freudenthal_multiplicities(rs, lam)
    assert all(type(m) is int for m in freud.values())
    assert Counter(tuple(w) for w in mod.weights) == freud
    assert sum(freud.values()) == mod.dim


@pytest.mark.parametrize("name,lam", [
    ("A2", (1, 1)),
    ("B2", (1, 1)),
    ("G2", (1, 0)),
    ("G2", (1, 1)),       # weight multiplicities up to 4
    ("B3", (1, 1, 0)),    # weight multiplicities up to 5
])
def test_contravariance_on_all_pairs(name, lam):
    rs = build_root_system(name)
    mod = build_irrep(rs, lam)
    for u in range(mod.dim):
        for w in range(mod.dim):
            for i in range(rs.rank):
                lhs = sum(
                    (c * mod.form(t, w) for t, c in mod.raise_[i].get(u, ())),
                    Fraction(0),
                )
                rhs = sum(
                    (c * mod.form(u, t) for t, c in mod.lower[i].get(w, ())),
                    Fraction(0),
                )
                assert lhs == rhs


def test_highest_vector_killed_by_raising():
    rs = build_root_system("B3")
    mod = build_irrep(rs, (1, 1, 0))
    for i in range(rs.rank):
        assert mod.raise_[i].get(0, []) == []


def _commutator(mod, alg, a, b, vec):
    out = mod.apply_root(alg, a, mod.apply_root(alg, b, vec))
    for t, c in mod.apply_root(alg, b, mod.apply_root(alg, a, vec)).items():
        out[t] = out.get(t, Fraction(0)) - c
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("name,lam", [
    ("G2", (0, 1)),
    ("B3", (0, 0, 1)),
    ("C3", (0, 1, 0)),
    ("A1xA1", (2, 3)),
    ("G2", (1, 1)),       # weight multiplicities up to 4
])
def test_root_operator_commutator_is_coroot_action(name, lam):
    # the operator columns satisfy the brackets of the reference table:
    # [X_a, X_b] = N_ab X_(a+b) for a root a+b, [X_a, X_-a] is the coroot
    # action, and [X_a, X_b] = 0 otherwise
    rs = build_root_system(name)
    alg = build_chevalley(rs)
    ref = build_reference(rs)
    mod = build_irrep(rs, lam)
    roots = sorted(ref.root_set)
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            for idx in range(mod.dim):
                v = {idx: Fraction(1)}
                got = _commutator(mod, alg, a, b, v)
                if not any(s):
                    scale = coroot_weight_pairing(rs, a, mod.weights[idx])
                    expected = {idx: scale} if scale else {}
                elif s in ref.root_set:
                    n = ref.constant(a, b)
                    expected = {t: n * c for t, c in mod.apply_root(alg, s, v).items()}
                else:
                    expected = {}
                assert got == expected, (a, b, idx)


def test_nondominant_rejected():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        build_irrep(rs, (1, -1))


# Modules in ranks 2 to 6, for the pairwise reference and the integrality
# checks; all but E6 w1 have multiplicities above 1.  In B4 w3, F4 w1 and
# E6 w1, 133 of 197, 117 of 165 and 126 of 152 candidate weights of the
# build are not weights, where it skips the Gram work.
REFERENCE_CASES = [
    ("G2", (1, 1)),
    ("G2", (2, 1)),
    ("B3", (1, 1, 0)),
    ("C3", (0, 2, 0)),
    ("D4", (1, 0, 1, 1)),
    ("A2", (2, 3)),
    ("B4", (1, 0, 0, 1)),
    ("F4", (0, 0, 0, 1)),
    ("E6", (1, 0, 0, 0, 0, 0)),
    ("F4", (1, 0, 0, 0)),
    ("B4", (0, 0, 1, 0)),
]


def _assert_matches_reference(rs, lam, dim_cap=5000):
    mod = build_irrep(rs, lam, dim_cap=dim_cap)
    ref = reference_irrep(rs, lam)
    assert mod.dim == ref.dim
    for attr in ("weights", "depths", "lower", "raise_", "gram"):
        assert getattr(mod, attr) == getattr(ref, attr), attr


@pytest.mark.parametrize("name,lam", REFERENCE_CASES)
def test_build_matches_pairwise_reference(name, lam):
    _assert_matches_reference(build_root_system(name), lam)


@given(st.sampled_from(["A2", "B2", "G2"]),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=40, deadline=None)
def test_build_matches_reference_on_random_weights(name, lam):
    rs = build_root_system(name)
    cap = 120
    if weyl_dimension(rs, lam) > cap:
        with pytest.raises(DimensionBudgetExceeded):
            build_irrep(rs, lam, dim_cap=cap)
    else:
        _assert_matches_reference(rs, lam, dim_cap=cap)


@pytest.mark.parametrize("name,lam", REFERENCE_CASES)
def test_gram_entries_are_ints(name, lam):
    # the form is integral on Chevalley monomials; operator coefficients
    # are ints exactly when they are integral
    mod = build_irrep(build_root_system(name), lam)
    for _ids, mat in mod.gram.values():
        assert all(type(x) is int for row in mat for x in row)
    for table in mod.lower + mod.raise_:
        for combo in table.values():
            assert all(_follows_number_policy(c) for _t, c in combo)


@pytest.mark.parametrize("name,lam", REFERENCE_CASES)
def test_one_reduction_per_weight_below_the_highest(monkeypatch, name, lam):
    # one rref per weight space below the highest, none at a candidate
    # weight that is not a weight
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or rref(m))
    mod = build_irrep(build_root_system(name), lam)
    assert len(calls) == len(mod.gram) - 1


def _follows_number_policy(x) -> bool:
    """An int, or a Fraction only where a division left a remainder."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def test_number_policy_where_values_are_made(monkeypatch, battery):
    # every value that `rref` and `nullspace` return, the base point and the
    # g.x0 vectors, every root-operator column and every invariant solution
    # is an int unless a division left a remainder
    made = []

    def recording(f, entries):
        def wrapper(*args):
            out = f(*args)
            made.extend(x for row in entries(out) for x in row)
            return out
        return wrapper

    monkeypatch.setattr(linalg, "rref", recording(linalg.rref, lambda out: out[0]))
    monkeypatch.setattr(linalg, "nullspace", recording(linalg.nullspace, lambda out: out))
    modules = []
    for name, lam in REFERENCE_CASES:
        rs = build_root_system(name)
        mod = build_irrep(rs, lam)
        decomposition = build_chevalley(rs)
        for beta in positive_roots(rs):
            for idx in range(mod.dim):
                mod.column(decomposition, beta, idx)
                mod.column(decomposition, neg(beta), idx)
        modules.append(mod)
    for _, ctx in battery:
        model = build_model(ctx)
        for space in invariant_quotient_weights(model).values():
            made.extend(x for v in space.solution_basis for x in v)
        made.extend(model.x0.values())
        for beta in model.lowering:
            model.gx0_at(beta)
        made.extend(c for vecs in model.gx0.values() for v in vecs for c in v.values())
        modules += model.modules
    made.extend(c for mod in modules for cols in mod._columns.values()
                for col in cols.values() for _, c in col)
    assert made and all(_follows_number_policy(x) for x in made)


def test_integral_raises_on_a_remainder():
    assert _integral(-6, 3) == -2 and type(_integral(-6, 3)) is int
    assert _integral(5, 1) == 5
    for num, den in ((7, 2), (-1, 3), (1, 4)):
        with pytest.raises(ArithmeticError):
            _integral(num, den)


def test_build_stops_when_module_outgrows_weyl_dimension(monkeypatch):
    # a build that makes more vectors than Weyl's formula allows has a wrong
    # Gram matrix somewhere; it must fail, not keep growing the module
    from sphmoduli import irreps
    rs = build_root_system("G2")
    true_dim = weyl_dimension(rs, (1, 1))
    monkeypatch.setattr(irreps, "weyl_dimension", lambda rs, lam: true_dim - 1)
    with pytest.raises(ArithmeticError, match="Weyl dimension"):
        build_irrep(rs, (1, 1))
