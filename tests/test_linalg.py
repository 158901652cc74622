from hypothesis import given, settings
from hypothesis import strategies as st

from sphmoduli.linalg import Echelon, independent_subset, reduce_mod, rref


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
