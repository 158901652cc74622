"""The corpus of each workload: which analyses one round runs.

A case is one `sphmoduli analyze` call.  The corpora are fixed; the seed of a
run only fixes the order in which each round visits them (see run.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product

import lie

SUBSETS_FLAGS = ("--enumerate-subsets",)
ORACLE_FLAGS = ("--oracle",)
SWEEP_FLAGS = ("--oracle", "--enumerate-subsets")

SWEEP_GROUPS = (
    "A1", "A1xA1", "A2", "B2", "G2",
    "A1xA1xA1", "A2xA1", "B2xA1", "G2xA1", "A3", "B3", "C3",
)
SWEEP_DIM_CAP = 16


@dataclass(frozen=True)
class Case:
    group: str
    weights: tuple          # basis weights in fundamental coordinates
    flags: tuple

    @property
    def label(self) -> str:
        return f"{self.group}:{json.dumps([list(w) for w in self.weights], separators=(',', ':'))}"

    def argv(self) -> list:
        return ["analyze", "--group", self.group,
                "--weights", json.dumps([list(w) for w in self.weights]),
                "--json", *self.flags]


def fundamental(rank: int, nodes) -> tuple:
    """The fundamental weights w_i (1-based i) of a group of this rank."""
    return tuple(tuple(1 if j == i - 1 else 0 for j in range(rank)) for i in nodes)


def doubled_fundamentals(rank: int) -> tuple:
    """F = 2 w_i for every node: the closed-form family on A1^k."""
    return tuple(tuple(2 if j == i else 0 for j in range(rank)) for i in range(rank))


def subsets_corpus() -> list:
    """Subset walk on contexts whose catalog is large next to their tangent
    space; the oracle is off."""
    return [
        Case("A1xA1xA1", doubled_fundamentals(3), SUBSETS_FLAGS),
        Case("A1xA1xA1xA1", doubled_fundamentals(4), SUBSETS_FLAGS),
        Case("A3xA1", fundamental(4, range(1, 5)), SUBSETS_FLAGS),
        Case("A4", fundamental(4, range(1, 5)), SUBSETS_FLAGS),
        Case("C4", fundamental(4, range(1, 5)), SUBSETS_FLAGS),
    ]


def oracle_corpus() -> list:
    """Representation route on deep or wide contexts; no subset walk.  The
    G2 module of highest weight 2w1 + w2 (dimension 189) is where module
    construction leads."""
    return [
        Case("E6", fundamental(6, (1, 6)), ORACLE_FLAGS),
        Case("F4", fundamental(4, (1, 4)), ORACLE_FLAGS),
        Case("F4", fundamental(4, (4,)), ORACLE_FLAGS),
        Case("B4", fundamental(4, range(1, 5)), ORACLE_FLAGS),
        Case("G2", ((2, 1),), ORACLE_FLAGS),
    ]


def sweep_corpus() -> list:
    """Both routes on every independent basis with coordinates in {0, 1} over
    the groups of rank <= 3, leaving out bases with a module of dimension above
    SWEEP_DIM_CAP; plus the crossed-lines example."""
    cases = [Case("A1xA1", ((2, 0), (4, 2)), SWEEP_FLAGS)]
    for name in SWEEP_GROUPS:
        group = lie.Group(name)
        vectors = [v for v in product((0, 1), repeat=group.rank)
                   if any(v) and group.weyl_dimension(v) <= SWEEP_DIM_CAP]
        for size in range(1, group.rank + 1):
            for basis in combinations(vectors, size):
                if lie.rank(basis) == size:
                    cases.append(Case(name, basis, SWEEP_FLAGS))
    return cases


WORKLOADS = {
    "subsets": subsets_corpus,
    "oracle": oracle_corpus,
    "sweep": sweep_corpus,
}
