from fractions import Fraction
from itertools import product

import pytest
from chevalley_reference import build_reference, coroot_weight_pairing

from sphmoduli import build_chevalley, build_root_system, positive_roots
from sphmoduli.rootsys import neg


def _basis_keys(alg):
    return [("x", r) for r in sorted(alg.root_set)] + [
        ("h", i) for i in range(alg.rs.rank)
    ]


def _bracket_keys(alg, a, b):
    return alg.bracket({a: Fraction(1)}, {b: Fraction(1)})


def test_a1_brackets():
    alg = build_reference(build_root_system("A1"))
    up = _bracket_keys(alg, ("x", (1,)), ("x", (-1,)))
    assert up == {("h", 0): Fraction(1)}
    assert _bracket_keys(alg, ("x", (1,)), ("x", (1,))) == {}


def test_a2_constants_are_units():
    alg = build_reference(build_root_system("A2"))
    c = alg.constant((1, 0), (0, 1))
    assert abs(c) == 1
    assert alg.constant((0, 1), (1, 0)) == -c


def test_b2_short_string_constant():
    alg = build_reference(build_root_system("B2"))
    assert abs(alg.constant((0, 1), (1, 1))) == 2


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A1xA1"])
def test_constants_magnitude_is_string_length(name):
    alg = build_reference(build_root_system(name))
    for (a, b), v in alg.constants.items():
        assert abs(v) == alg.string_p(a, b) + 1


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_antisymmetry(name):
    alg = build_reference(build_root_system(name))
    for (a, b), v in alg.constants.items():
        assert alg.constants[(b, a)] == -v


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_jacobi_identity(name):
    alg = build_reference(build_root_system(name))
    keys = _basis_keys(alg)
    one = Fraction(1)
    for a, b, c in product(keys, repeat=3):
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = alg.bracket({y: one}, {z: one})
            outer = alg.bracket({x: one}, inner)
            for k, v in outer.items():
                total[k] = total.get(k, Fraction(0)) + v
        assert all(v == 0 for v in total.values()), (a, b, c)


def test_opposite_root_bracket_is_coroot():
    for name in ["B2", "G2", "C3"]:
        rs = build_root_system(name)
        alg = build_reference(rs)
        for beta in alg.pos_roots:
            h = _bracket_keys(alg, ("x", beta), ("x", tuple(-c for c in beta)))
            # the result, applied to a root, is the coroot pairing
            for j in range(rs.rank):
                alpha_j = tuple(1 if t == j else 0 for t in range(rs.rank))
                value = sum(
                    coeff * rs.pairing(i, alpha_j) for (_, i), coeff in h.items()
                )
                assert value == coroot_weight_pairing(rs, beta, rs.root_to_weight(alpha_j))


def test_product_components_commute():
    alg = build_reference(build_root_system("A1xA1"))
    assert _bracket_keys(alg, ("x", (1, 0)), ("x", (0, 1))) == {}
    assert _bracket_keys(alg, ("x", (1, 0)), ("x", (0, -1))) == {}


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A7", "B2", "B3", "B4", "C3", "C4", "D4", "D6",
    "E6", "E7", "E8", "F4", "G2", "A1xA1", "B3xG2xA1",
])
def test_decomposition_matches_reference(name):
    rs = build_root_system(name)
    decomposition = build_chevalley(rs)
    ref = build_reference(rs)
    pos = positive_roots(rs)
    assert set(pos) | {neg(r) for r in pos} == ref.root_set
    assert decomposition.keys() == ref.decomposition.keys()
    for gamma, (eps, delta, n) in decomposition.items():
        assert (eps, delta) == ref.decomposition[gamma]
        assert ref.constant(eps, delta) == n
        assert ref.constant(neg(eps), neg(delta)) == -n
