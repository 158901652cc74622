import pytest

from catalog_bruteforce import bruteforce_catalog
from sphmoduli import build_root_system, compatible_with_sp, spherical_root_catalog
from sphmoduli.sphroots import (
    KIND_B3_SPECIAL,
    KIND_BN_DOUBLE,
    KIND_BN_SUM,
    KIND_CN,
    KIND_F4,
    KIND_G2_DOUBLE,
    KIND_G2_SUM,
    KIND_PAIR,
)


def _coords(rs_name):
    return {r.coords for r in spherical_root_catalog(build_root_system(rs_name))}


def test_catalog_a1():
    assert _coords("A1") == {(1,), (2,)}


def test_catalog_a1xa1():
    assert _coords("A1xA1") == {(1, 0), (2, 0), (0, 1), (0, 2), (1, 1)}


def test_catalog_g2():
    assert _coords("G2") == {(1, 0), (2, 0), (0, 1), (0, 2), (4, 2), (1, 1)}


@pytest.mark.parametrize("name,count", [
    ("A1", 2), ("A1xA1", 5), ("A2", 5), ("A3", 11), ("B2", 6), ("B3", 13),
    ("C3", 11), ("G2", 6), ("D4", 23), ("F4", 20), ("D5", 34), ("B5", 33),
    ("C5", 29), ("A6", 41), ("E6", 47), ("D6", 47), ("E7", 62), ("A2xB3", 24),
])
def test_catalog_counts_match_bruteforce(name, count):
    rs = build_root_system(name)
    enumerated = {r.coords for r in spherical_root_catalog(rs)}
    assert len(enumerated) == count
    assert enumerated == bruteforce_catalog(rs)


def test_no_duplicate_vectors():
    for name in ["A3", "B3", "D4", "F4", "A2xB2"]:
        cat = spherical_root_catalog(build_root_system(name))
        assert len({r.coords for r in cat}) == len(cat)


def test_coefficients_positive_on_support():
    for name in ["B3", "C3", "D4", "G2", "F4"]:
        for r in spherical_root_catalog(build_root_system(name)):
            for i, c in enumerate(r.coords):
                assert (c >= 1) == (i in r.support)


def test_type_gating():
    laced = {KIND_BN_SUM, KIND_BN_DOUBLE, KIND_B3_SPECIAL, KIND_CN,
             KIND_F4, KIND_G2_DOUBLE, KIND_G2_SUM}
    for name in ["A3", "A1xA1xA1", "D4"]:
        kinds = {r.kind for r in spherical_root_catalog(build_root_system(name))}
        assert not kinds & laced
    b2_kinds = {r.kind for r in spherical_root_catalog(build_root_system("B2"))}
    assert KIND_CN not in b2_kinds and KIND_B3_SPECIAL not in b2_kinds


def test_product_is_union_plus_cross_pairs():
    pair = spherical_root_catalog(build_root_system("A1xA1"))
    single = {r.coords[0] for r in spherical_root_catalog(build_root_system("A1"))}
    expected = {(c, 0) for c in single} | {(0, c) for c in single} | {(1, 1)}
    assert {r.coords for r in pair} == expected
    cross = [r for r in pair if r.kind == KIND_PAIR]
    assert [r.coords for r in cross] == [(1, 1)]


def test_d4_triality_gives_three_fork_vectors():
    cat = spherical_root_catalog(build_root_system("D4"))
    fork = sorted(r.coords for r in cat if r.kind == "Dn")
    assert fork == [(1, 2, 1, 2), (1, 2, 2, 1), (2, 2, 1, 1)]


# -- compatibility ----------------------------------------------------------


def _root(rs_name, coords):
    rs = build_root_system(rs_name)
    (match,) = [r for r in spherical_root_catalog(rs) if r.coords == tuple(coords)]
    return rs, match


def test_compat_upper_bound_attained():
    rs, r = _root("A3", (1, 2, 1))
    full = {i for i in range(rs.rank) if rs.pairing(i, r.coords) == 0}
    assert compatible_with_sp(r, full)


def test_compat_b3_sum():
    rs, r = _root("B3", (1, 1, 1))
    assert rs.pairing(0, r.coords) == 1
    assert rs.pairing(1, r.coords) == 0
    assert rs.pairing(2, r.coords) == 0
    assert compatible_with_sp(r, {1})
    assert not compatible_with_sp(r, set())        # lower bound broken
    assert not compatible_with_sp(r, {1, 2})       # short end excluded


def test_compat_simple_root_trivial():
    rs, r = _root("A1", (1,))
    assert compatible_with_sp(r, set())


def test_compat_b2_sum_needs_empty_parabolic():
    rs, r = _root("B2", (1, 1))
    assert compatible_with_sp(r, set())
    assert not compatible_with_sp(r, {1})


def test_compat_cn_drops_first_from_lower_bound_only():
    rs, r = _root("C3", (1, 2, 1))
    assert {i for i in r.support if rs.pairing(i, r.coords) == 0} == {0, 2}
    assert compatible_with_sp(r, {2})       # first node not required
    assert compatible_with_sp(r, {0, 2})    # but still allowed above
    assert not compatible_with_sp(r, set())
    assert not compatible_with_sp(r, {1, 2})


def test_compat_not_monotone():
    # one witness where shrinking sp breaks it and one where growing does
    rs, r = _root("B3", (1, 1, 1))
    assert not compatible_with_sp(r, set())
    assert compatible_with_sp(r, {1})
    assert not compatible_with_sp(r, {0, 1})


def test_bn_double_uses_general_case():
    rs, r = _root("B2", (2, 2))
    # no exclusion: zero set in support is {a2}
    assert compatible_with_sp(r, {1})
    assert not compatible_with_sp(r, set())


@pytest.mark.parametrize("name", ["A3xA1", "A4", "B3", "B4", "C3", "C4", "D4", "F4", "G2", "E6"])
def test_catalog_sp_bounds_match_definition(name):
    # The simple roots pairing to zero with the root, inside its support and
    # globally, recomputed from the Cartan matrix.  The B-type sum drops its
    # short end from both bounds, the C-type shape its first node from the
    # lower one.  Both nodes are read off the Cartan entries of the support:
    # the short end of B_k is the node whose row holds the -2, and the first
    # node of C_k is the end (one neighbour in the support) away from the -2.
    rs = build_root_system(name)
    n = rs.rank
    kinds = set()
    for root in spherical_root_catalog(rs):
        supp = [j for j in range(n) if root.coords[j]]
        pairing = [sum(rs.cartan[i][j] * root.coords[j] for j in range(n)) for i in range(n)]
        upper = {i for i in range(n) if pairing[i] == 0}
        lower = upper & set(supp)
        if root.kind == KIND_BN_SUM:
            (short,) = {j for j in supp for i in supp if rs.cartan[j][i] == -2}
            lower, upper = lower - {short}, upper - {short}
        elif root.kind == KIND_CN:
            ends = [j for j in supp if sum(1 for i in supp if i != j and rs.cartan[j][i]) == 1]
            (first,) = [j for j in ends
                        if all(-2 not in (rs.cartan[i][j], rs.cartan[j][i]) for i in supp)]
            lower -= {first}
        kinds.add(root.kind)
        assert (root.sp_lower, root.sp_upper) == (lower, upper), root
    if name[0] in "BF":
        assert KIND_BN_SUM in kinds
    if name[0] in "CF":
        assert KIND_CN in kinds
