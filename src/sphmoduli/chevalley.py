"""The bracket decomposition of the positive roots of a simple Lie algebra.

This is all the representation route reads of the algebra.  Every
non-simple positive root gamma is a_i + delta for a simple root a_i and a
positive root delta; the decomposition takes the largest such i, the
largest with a nonzero string length p_i(gamma) (`rootsys.root_strings`).
In a Chevalley basis, normalized so that bracketing a root operator with
its opposite gives the coroot, the constant on (a_i, delta) is fixed to
+N = +p_i(gamma), one more than the length of the a_i-string below delta,
and the constant on (-a_i, -delta) is then -N.  So the operator of +-gamma
is the bracket of the operators of +-a_i and +-delta divided by +-N, and
these choices fix every root operator.  `build_chevalley` returns the
decomposition itself, the dict gamma -> (a_i, delta, N) over the non-simple
positive roots.  The full table of constants stays in
`tests/chevalley_reference.py` as the reference.
"""

from __future__ import annotations

from .rootsys import RootSystem, root_strings, sub


def build_chevalley(rs: RootSystem) -> dict:
    decomposition: dict = {}
    for gamma, p in root_strings(rs).items():
        if sum(gamma) < 2:
            continue
        i = max(j for j, p_j in enumerate(p) if p_j)
        alpha = rs.simple_roots[i]
        decomposition[gamma] = (alpha, sub(gamma, alpha), p[i])
    return decomposition
