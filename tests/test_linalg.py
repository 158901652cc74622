from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_reference import (
    reference_nullspace,
    reference_rank,
    reference_rref,
    reference_solve_unique,
)
from sphmoduli.linalg import (
    Echelon,
    independent_subset,
    nullspace,
    reduce_mod,
    rref,
    solve_unique,
)


def _rref_rank(rows):
    return len(rref(rows)[1]) if rows else 0


def _matrices(cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), max_size=6)


_pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(_matrices(n), _matrices(n)))


@settings(max_examples=200, deadline=None)
@given(_pairs)
def test_independent_subset_has_rref_rank(pair):
    m, _ = pair
    assert len(independent_subset(m)) == _rref_rank(m)


@settings(max_examples=200, deadline=None)
@given(_pairs)
def test_reduce_mod_keeps_rank_raising_vectors(pair):
    basis, vectors = pair
    kept = []
    for v in vectors:
        if _rref_rank(basis + kept + [v]) > _rref_rank(basis + kept):
            kept.append(v)
    assert reduce_mod(basis, vectors) == kept


def test_echelon_copy_is_independent():
    ech = Echelon([[1, 0, 0]])
    grown = ech.copy()
    assert grown.add([0, 1, 0])
    assert len(ech) == 1 and len(grown) == 2
    assert ech.add([0, 1, 0])
    assert not grown.add([2, -3, 0])


# Rational matrices of up to 6 rows and 5 columns, with zero rows mixed in;
# zero rows or zero columns give the empty cases.
_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


def _fraction_matrices(cols):
    row = st.one_of(
        st.just([Fraction(0)] * cols),
        st.lists(_fractions, min_size=cols, max_size=cols),
    )
    return st.tuples(st.just(cols), st.lists(row, max_size=6))


_shaped = st.integers(0, 5).flatmap(_fraction_matrices)


@settings(max_examples=200, deadline=None)
@given(_shaped)
def test_rref_matches_reference(shaped):
    _, m = shaped
    assert rref(m) == reference_rref(m)


@settings(max_examples=200, deadline=None)
@given(_shaped, st.data())
def test_solve_unique_matches_reference(shaped, data):
    cols, a = shaped
    if data.draw(st.booleans()):
        x = data.draw(st.lists(_fractions, min_size=cols, max_size=cols))
        b = [sum((c * y for c, y in zip(row, x)), Fraction(0)) for row in a]
    else:
        b = data.draw(st.lists(_fractions, min_size=len(a), max_size=len(a)))
    try:
        expected = reference_solve_unique(a, b)
    except ValueError:
        with pytest.raises(ValueError):
            solve_unique(a, b)
    else:
        assert solve_unique(a, b) == expected


@settings(max_examples=200, deadline=None)
@given(_shaped)
def test_nullspace_matches_reference(shaped):
    cols, a = shaped
    assert nullspace(a, cols) == reference_nullspace(a, cols)


@settings(max_examples=200, deadline=None)
@given(_shaped)
def test_echelon_add_matches_reference_rank_increments(shaped):
    _, m = shaped
    ech = Echelon()
    assert [ech.add(row) for row in m] == [
        reference_rank(m[:k + 1]) > reference_rank(m[:k]) for k in range(len(m))
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(_matrices))
def test_echelon_int_rows_match_fraction_rows(m):
    # rows of ints skip the denominator pass; the kept rows, the pivots
    # and every decision must be those of the same rows as Fractions
    ints, fracs = Echelon(), Echelon()
    for row in m:
        assert ints.add(tuple(row)) == fracs.add([Fraction(x) for x in row])
    assert ints.pivots == fracs.pivots
    assert [list(r) for r in ints.rows] == fracs.rows
