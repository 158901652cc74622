from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linalg_reference import (
    reference_echelon,
    reference_nullspace,
    reference_rank,
    reference_rref,
)
from sphmoduli.linalg import (
    Echelon,
    nullspace,
    reduce_mod,
    rref,
)


def _rref_rank(rows):
    return len(rref(rows)[1]) if rows else 0


def _matrices(cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), max_size=6)


_pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(_matrices(n), _matrices(n)))


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
# zero rows or zero columns give the empty cases.  A row holds Fractions,
# ints (which take the int-only path of `Echelon.add`), or both.
_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
_ints = st.integers(-3, 3)


def _rational_matrices(cols):
    row = st.one_of(
        st.just([Fraction(0)] * cols),
        st.lists(_fractions, min_size=cols, max_size=cols),
        st.lists(_ints, min_size=cols, max_size=cols),
        st.lists(_fractions | _ints, min_size=cols, max_size=cols),
    )
    return st.tuples(st.just(cols), st.lists(row, max_size=6))


_shaped = st.integers(0, 5).flatmap(_rational_matrices)


@settings(max_examples=200, deadline=None)
@given(_shaped)
@example((2, [[0, 1], [1, 0]]))   # an `Echelon` keeps these rows out of pivot order
def test_rref_matches_reference(shaped):
    _, m = shaped
    assert rref(m) == reference_rref(m)


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


def _with_dependent_rows(shaped):
    """A matrix of `_shaped` followed by integer combinations of its rows."""
    cols, m = shaped
    combos = st.lists(st.lists(st.integers(-2, 2), min_size=len(m), max_size=len(m)),
                      max_size=3 if m else 0)
    return combos.map(lambda combos: m + [[sum(c * row[j] for c, row in zip(coeffs, m))
                                           for j in range(cols)] for coeffs in combos])


@settings(max_examples=300, deadline=None)
@given(_shaped.flatmap(_with_dependent_rows))
@example([[0, 2, 4], [1, 1, 1], [2, 4, 6], [0, 0, 0], [3, 0, -3]])
@example([[Fraction(1, 2), Fraction(1, 3)], [3, 2], [0, 0], [Fraction(-6, 5), 4]])
def test_echelon_matches_step_by_step_reference(m):
    # one gcd per kept row keeps the rows and pivots of dividing after
    # every step, with zero rows, dependent rows, ints and Fractions
    ech = Echelon(m)
    assert (ech.rows, ech.pivots) == reference_echelon(m)
