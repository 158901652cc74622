"""Closed forms from the literature, checked against the combinatorial route.

Each test states a theorem about the tangent space at the most degenerate
point for a family of weight monoids, so it checks `tangent_space` and
`is_n_adapted_subset` against a source outside the repository rather than
against the representation-theoretic route.
"""

import pytest

from sphmoduli import build_context, build_root_system, is_n_adapted_subset, tangent_space

from rank_one_grid import rank_one_bases


@pytest.mark.parametrize("name", [
    "A2", "A3", "A5", "A10", "A20", "B2", "B3", "B5", "B6", "B10",
    "C3", "C4", "C5", "C6", "C10", "D4", "D5", "D6", "D7", "D10", "D20",
    "E6", "E7", "E8", "F4", "G2",
])
def test_all_fundamental_weights_give_the_model_system(name):
    """For Gamma generated by all fundamental weights, the affine multicone
    over the flag variety, the tangent weights are a_p + a_q over the edges
    of the Dynkin diagram, and they form one N-adapted set of size n - 1:
    the spherical system of Luna's model variety (Luna, "La variete
    magnifique modele", J. Algebra 313, 2007; Bravi, Cupit-Foutou,
    "Equivariant deformations of the affine multicone over a flag variety",
    Adv. Math. 217, 2008).  The edges are read from the Cartan matrix."""
    rs = build_root_system(name)
    n = rs.rank
    ctx = build_context(rs, [tuple(int(i == j) for j in range(n)) for i in range(n)])
    weights = tangent_space(ctx).weights
    edges = {tuple(int(k in (i, j)) for k in range(n))
             for i in range(n) for j in range(i) if rs.cartan[i][j]}
    assert {w.coords for w in weights} == edges
    assert len(weights) == n - 1
    assert is_n_adapted_subset(ctx, weights).ok


def test_rank_one_tangent_space_is_lambda_or_twice_lambda():
    """For Gamma generated by one weight lambda, the moduli scheme is a
    point or an affine line, so the tangent space has dimension at most 1,
    and its one weight is lambda or 2 lambda (Jansou, "Deformations des
    cones de vecteurs primitifs", Math. Ann. 338, 2007)."""
    count = 0
    for rs, lam in rank_one_bases():
        weights = tangent_space(build_context(rs, [lam])).weights
        assert len(weights) <= 1, (rs.components, lam)
        for w in weights:
            assert rs.root_to_weight(w.coords) in (lam, tuple(2 * c for c in lam)), \
                (rs.components, lam, w.name())
        count += 1
    assert count == 1002
