"""The bracket decomposition of the positive roots of a simple Lie algebra.

This is all the representation route reads of the algebra.  Every
non-simple positive root gamma is a_i + delta for a simple root a_i and a
positive root delta; the decomposition takes the largest such i.  In a
Chevalley basis, normalized so that bracketing a root operator with its
opposite gives the coroot, the constant on (a_i, delta) is fixed to
+N = +(p+1), with p the length of the a_i-string below delta, and the
constant on (-a_i, -delta) is then -N.  So the operator of +-gamma is the
bracket of the operators of +-a_i and +-delta divided by +-N, and these
choices fix every root operator.  `build_chevalley` returns the
decomposition itself, the dict gamma -> (a_i, delta, N) over the non-simple
positive roots.  The full table of constants stays in
`tests/chevalley_reference.py` as the reference.
"""

from __future__ import annotations

from .rootsys import RootSystem, positive_roots, sub


def build_chevalley(rs: RootSystem) -> dict:
    pos = positive_roots(rs)
    pos_set = set(pos)
    decomposition: dict = {}
    for gamma in pos:
        if sum(gamma) < 2:
            continue
        # 2a_i is never a root, so delta and its a_i-string below stay positive
        for i in reversed(range(rs.rank)):
            alpha = rs.simple_roots[i]
            delta = sub(gamma, alpha)
            if delta in pos_set:
                break
        n = 1
        below = sub(delta, alpha)
        while below in pos_set:
            n += 1
            below = sub(below, alpha)
        decomposition[gamma] = (alpha, delta, n)
    return decomposition
