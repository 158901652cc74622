"""Symmetries that any correct answer has, checked without a reference.

An automorphism pi of the Dynkin diagram permutes the simple roots, and so
the coordinates of weights (fundamental-weight coefficients) and of roots
(simple-root coefficients) alike.  It carries the answer for a basis F onto
the answer for pi F: the tangent weights, the N-adapted sets of the walk
with their `maximal` flags, and the oracle's weights with their
multiplicities.  For G = G1 x G2 and a basis F1 u F2 with each part on one
factor, the tangent weights are those of F1 on G1 and of F2 on G2, side by
side.  Neither check needs the other route or a reference implementation.
"""

from itertools import combinations, permutations, product

import pytest

from sphmoduli import (
    build_context,
    build_root_system,
    enumerate_n_adapted_subsets,
    oracle_report,
    tangent_space,
)

def _zero_one(n):
    return [v for v in product((0, 1), repeat=n) if any(v)]


# (group, pi as the image of each simple root, the weights whose singletons
# and pairs are the bases, whether to compare the oracle): the A3 flip, the
# five nontrivial permutations of the D4 legs 0, 2, 3 and the E6 flip.
AUTOMORPHISMS = (
    [("A3", (2, 1, 0), _zero_one(3), True)]
    + [("D4", (a, 1, b, c), _zero_one(4), False) for a, b, c in permutations((0, 2, 3))][1:]
    + [("E6", (5, 1, 4, 3, 2, 0), [tuple(int(i == j) for j in range(6)) for i in range(6)], False)]
)


def _permute(pi, v):
    out = [0] * len(v)
    for i, c in enumerate(v):
        out[pi[i]] = c
    return tuple(out)


def _answer(rs, basis, oracle, pi=None):
    """The tangent weights, the walk's records and (when asked) the oracle's
    weights for a basis, each root vector moved by pi when given."""
    move = (lambda v: _permute(pi, v)) if pi else (lambda v: v)
    ctx = build_context(rs, list(basis))
    tangent = sorted(move(g) for g in tangent_space(ctx).weight_coords())
    walk = sorted((sorted(move(r.coords) for r in rec.roots), rec.maximal)
                  for rec in enumerate_n_adapted_subsets(ctx))
    weights = {move(g): m for g, m in oracle_report(ctx).weights.items()} if oracle else None
    return tangent, walk, weights


@pytest.mark.parametrize("group,pi,vectors,oracle", AUTOMORPHISMS,
                         ids=[f"{g}-{''.join(map(str, p))}" for g, p, _, _ in AUTOMORPHISMS])
def test_diagram_automorphism_carries_the_answer(group, pi, vectors, oracle):
    rs = build_root_system(group)
    n = rs.rank
    assert all(rs.cartan[pi[i]][pi[j]] == rs.cartan[i][j] for i in range(n) for j in range(n))
    seen = 0
    for basis in (b for size in (1, 2) for b in combinations(vectors, size)):
        image = [_permute(pi, w) for w in basis]
        assert _answer(rs, basis, oracle, pi) == _answer(rs, image, oracle), basis
        seen += 1
    assert seen == len(vectors) * (len(vectors) + 1) // 2


def _factor_contexts(rs, max_coord, max_size):
    """The context of every independent basis of at most max_size weights
    with coordinates at most max_coord, the empty basis included."""
    vectors = [v for v in product(range(max_coord + 1), repeat=rs.rank) if any(v)]
    out = []
    for b in (b for size in range(max_size + 1) for b in combinations(vectors, size)):
        try:
            out.append(build_context(rs, list(b)))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("first", ["A2", "B2"])
def test_product_split_is_the_union_of_the_factors(first):
    # F1 on the rank-two factor, coordinates <= 2, and F2 on A1, coordinate
    # <= 3, each of them possibly empty
    g = build_root_system(first + "xA1")
    count = 0
    for c1, c2 in product(_factor_contexts(build_root_system(first), 2, 2),
                          _factor_contexts(build_root_system("A1"), 3, 1)):
        split = ({w + (0,) for w in tangent_space(c1).weight_coords()}
                 | {(0, 0) + w for w in tangent_space(c2).weight_coords()})
        basis = [w + (0,) for w in c1.basis] + [(0, 0) + w for w in c2.basis]
        assert tangent_space(build_context(g, basis)).weight_coords() == split, basis
        count += 1
    # 34 bases on the rank-two factor (three pairs are dependent), 4 on A1
    assert count == 34 * 4
