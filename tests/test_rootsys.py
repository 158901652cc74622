from fractions import Fraction
from itertools import combinations

import pytest

from sphmoduli import (
    RootSystemError,
    build_root_system,
    classify_subdiagram,
    positive_root_count,
    positive_roots,
)
from sphmoduli.rootsys import (
    _bourbaki_orders,
    _connected_components,
    _match_labelings,
    cartan_block,
    dynkin_edges,
    root_strings,
)

from rootsys_reference import reference_match_labelings


def test_parse_a1():
    rs = build_root_system("A1")
    assert rs.rank == 1
    assert rs.cartan == ((2,),)


def test_parse_b2():
    rs = build_root_system("B2")
    assert rs.cartan == ((2, -1), (-2, 2))
    assert rs.symmetrizer == (2, 1)


def test_parse_product():
    rs = build_root_system("A1xA1")
    assert rs.cartan == ((2, 0), (0, 2))


def test_parse_whitespace_separator():
    assert build_root_system("B3 G2").components == (("B", 3), ("G", 2))


@pytest.mark.parametrize("bad", ["D3", "C2", "B1", "E5", "F3", "G4", "Q5", "A0", "",
                                 pytest.param("A" + "1" * 5000, id="A-5000-digits")])
def test_parse_errors(bad):
    with pytest.raises(RootSystemError):
        build_root_system(bad)


def test_group_size_is_bounded_before_the_cartan_matrix():
    # A100 is the largest group accepted; a larger one is refused from its
    # positive root count, or from its rank, before any rank x rank matrix
    # is allocated
    assert build_root_system("A100").rank == 100
    assert build_root_system("x".join(["A1"] * 100)).rank == 100
    for name in ("A101", "A100000", "A100xA1"):
        with pytest.raises(RootSystemError, match="positive roots"):
            build_root_system(name)
    with pytest.raises(RootSystemError, match="rank 101"):
        build_root_system("x".join(["A1"] * 101))


def test_parse_error_names_offending_token():
    with pytest.raises(RootSystemError, match="D3"):
        build_root_system("A2xD3")


@pytest.mark.parametrize("name", [
    "A1", "A5", "B2", "B5", "C3", "C5", "D4", "D6", "E6", "E7", "E8",
    "F4", "G2", "A2xB3", "A1xA1xA1", "A30", "B20", "C20", "D30",
])
def test_positive_root_counts(name):
    rs = build_root_system(name)
    expected = sum(positive_root_count(t, r) for t, r in rs.components)
    assert len(positive_roots(rs)) == expected


def test_b2_root_list():
    rs = build_root_system("B2")
    assert set(positive_roots(rs)) == {(1, 0), (0, 1), (1, 1), (1, 2)}


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4", "A2xB2"])
def test_roots_match_reflection_orbit(name):
    # independent recomputation: close the simple roots under the simple
    # reflections and keep the nonnegative vectors
    rs = build_root_system(name)
    n = rs.rank
    orbit = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = set(orbit)
    while frontier:
        new = set()
        for v in frontier:
            for i in range(n):
                refl = list(v)
                refl[i] -= rs.pairing(i, v)
                refl = tuple(refl)
                if refl not in orbit:
                    orbit.add(refl)
                    new.add(refl)
        frontier = new
    positives = {v for v in orbit if all(c >= 0 for c in v)}
    assert positives == set(positive_roots(rs))


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A7", "B2", "B3", "B4", "C3", "C4", "D4", "D6",
    "E6", "E7", "E8", "F4", "G2", "A1xA1", "B3xG2xA1",
])
def test_root_strings_match_membership_walk(name):
    # every string length against a walk down the a_i-string by membership
    # in the set of positive roots
    rs = build_root_system(name)
    roots = set(positive_roots(rs))
    for beta, lengths in root_strings(rs).items():
        for i, p in enumerate(lengths):
            walked, lower = 0, list(beta)
            while True:
                lower[i] -= 1
                if tuple(lower) not in roots:
                    break
                walked += 1
            assert p == walked, (beta, i)


def test_pairing_examples():
    b2 = build_root_system("B2")
    assert b2.pairing(0, (1, 2)) == 0
    assert b2.pairing(1, (1, 2)) == 2
    prod = build_root_system("A1xA1")
    assert prod.pairing(0, (0, 1)) == 0


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2", "E6"])
def test_pairing_bounded(name):
    rs = build_root_system(name)
    for beta in positive_roots(rs):
        for i in range(rs.rank):
            assert -3 <= rs.pairing(i, beta) <= 3


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "F4", "G2", "B3xG2"])
def test_symmetrized_cartan_positive_definite(name):
    rs = build_root_system(name)
    n = rs.rank
    sym = [[Fraction(rs.symmetrizer[i] * rs.cartan[i][j]) for j in range(n)]
           for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert sym[i][j] == sym[j][i]
    # leading principal minors via fraction-free elimination
    for k in range(1, n + 1):
        minor = _det([row[:k] for row in sym[:k]])
        assert minor > 0


def _det(m):
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def test_classify_two_a1_components():
    rs = build_root_system("A3")
    comps = classify_subdiagram(rs, {0, 2})
    assert [(c.dynkin_type, c.rank) for c in comps] == [("A", 1), ("A", 1)]


def test_classify_a3_has_flip():
    rs = build_root_system("A3")
    (comp,) = classify_subdiagram(rs, {0, 1, 2})
    assert comp.dynkin_type == "A" and comp.rank == 3
    assert set(comp.labelings) == {(0, 1, 2), (2, 1, 0)}


def test_classify_b2_inside_b3():
    rs = build_root_system("B3")
    (comp,) = classify_subdiagram(rs, {1, 2})
    assert comp.dynkin_type == "B"
    assert comp.labelings == ((1, 2),)  # short root must sit in position 2


def test_classify_d4_triality():
    rs = build_root_system("D4")
    (comp,) = classify_subdiagram(rs, {0, 1, 2, 3})
    assert comp.dynkin_type == "D"
    assert len(comp.labelings) == 6


def test_classify_c3_not_b3():
    rs = build_root_system("C3")
    (comp,) = classify_subdiagram(rs, {0, 1, 2})
    assert comp.dynkin_type == "C"


@pytest.mark.parametrize("name", [
    "A5", "B5", "C5", "D5", "F4", "G2", "D4", "A2xA3", "B3xG2",
])
def test_classify_roundtrip_all_subsets(name):
    # rebuilding the Cartan matrix from any labeling reproduces the induced
    # submatrix
    rs = build_root_system(name)
    n = rs.rank
    for mask in range(1, 1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        for comp in classify_subdiagram(rs, subset):
            block = cartan_block(comp.dynkin_type, comp.rank)
            for labeling in comp.labelings:
                for p in range(comp.rank):
                    for q in range(comp.rank):
                        assert rs.cartan[labeling[p]][labeling[q]] == block[p][q]


def test_symmetrizer_relation():
    for name in ["B4", "C4", "F4", "G2", "B2xG2"]:
        rs = build_root_system(name)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.symmetrizer[i] * rs.cartan[i][j] == rs.symmetrizer[j] * rs.cartan[j][i]


def _types(rank):
    """Every simple type of this rank."""
    return "A" + "B" * (rank >= 2) + "C" * (rank >= 3) + "D" * (rank >= 4) \
        + "E" * (rank in (6, 7, 8)) + "F" * (rank == 4) + "G" * (rank == 2)


@pytest.mark.parametrize("name", ["A6", "B5", "C5", "D6", "E6", "E7", "E8", "F4", "G2",
                                  "B3xG2xA1"])
def test_match_labelings_equal_unfiltered_reference(name):
    # the leaf-to-leaf orders miss no labeling: on every connected
    # subdiagram and every simple type of its rank, the labelings are the
    # exhaustive matcher's, and some type matches
    rs = build_root_system(name)
    for size in range(1, rs.rank + 1):
        for subset in combinations(range(rs.rank), size):
            if len(_connected_components(rs, subset)) != 1:
                continue
            matched = False
            orders = list(_bourbaki_orders(rs, subset))
            for typ in _types(size):
                got = _match_labelings(rs, orders, dynkin_edges(typ, size))
                template = cartan_block(typ, size)
                assert got == reference_match_labelings(rs, subset, template), (subset, typ)
                matched = matched or bool(got)
            assert matched, subset


@pytest.mark.parametrize("name", ["A7", "B5", "C5", "D6", "E8", "F4", "G2", "B3xG2xA1"])
def test_root_to_weight_is_cartan_product(name):
    # the sparse sum over a root's support against the dense Cartan product,
    # on every positive and negative root and a few other lattice vectors
    rs, fresh = build_root_system(name), build_root_system(name)
    vectors = list(positive_roots(rs)) + [tuple(-c for c in b) for b in positive_roots(rs)]
    vectors += [tuple(range(rs.rank)), tuple((-1) ** i * i for i in range(rs.rank))]
    for v in vectors:
        dense = tuple(sum(a * c for a, c in zip(row, v)) for row in rs.cartan)
        assert rs.root_to_weight(v) == dense, v
        assert fresh.root_to_weight(v) == dense, v
