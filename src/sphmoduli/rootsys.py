"""Root systems for products of simple Dynkin types.

Simple roots carry a single global index 0..n-1, components concatenated in
input order; within a component the numbering follows Bourbaki.  Root
vectors are integer tuples of simple-root coefficients, weights are integer
tuples of fundamental-weight coefficients, so that the pairing of the i-th
simple coroot with a weight is just coordinate i.

A `RootSystem` memoises the weight of each root vector it is asked about
(`root_to_weight`, which `pairing` reads), filled lazily.  The memo is not
part of equality or hashing, so it leaves the keys of the caches keyed on a
root system alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

RootVector = tuple  # integer simple-root coefficients
Weight = tuple      # integer fundamental-weight coefficients

# At most nine digits of rank, so that reading it as an int cannot fail;
# `_MAX_POSITIVE_ROOTS` refuses far smaller ranks.
_TOKEN = re.compile(r"^([ABCDEFG])(\d{1,9})$")

# Smallest and largest admissible rank per type; no largest for A to D.
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}

# Largest group accepted, by its number of positive roots and by its rank:
# those of A100.  The catalog, and so the report, grows like the cube of the
# rank; a product of A1 factors has few positive roots, but its catalog holds
# every orthogonal pair of simple roots as a vector of the full rank.
_MAX_POSITIVE_ROOTS = 5050
_MAX_TOTAL_RANK = 100


class RootSystemError(ValueError):
    """Bad type string or rank constraint violation."""


def dynkin_edges(typ: str, rank: int) -> list[tuple]:
    """The rank - 1 edges of the Bourbaki diagram of one simple type, each as
    (p, q, <a_p^v, a_q>, <a_q^v, a_p>) with p < q."""
    if typ in ("A", "B", "C", "F"):
        edges = [(p, p + 1, -1, -1) for p in range(rank - 1)]
        if typ == "B":
            edges[-1] = (rank - 2, rank - 1, -1, -2)
        elif typ == "C":
            edges[-1] = (rank - 2, rank - 1, -2, -1)
        elif typ == "F":
            edges[1] = (1, 2, -1, -2)
    elif typ == "D":
        # chain 1-2-...-(n-1), node n attached to n-2
        edges = [(p, p + 1, -1, -1) for p in range(rank - 2)] + [(rank - 3, rank - 1, -1, -1)]
    elif typ == "E":
        # chain 1-3-4-5-..., node 2 attached to 4
        edges = [(0, 2, -1, -1), (1, 3, -1, -1)] + [(p, p + 1, -1, -1) for p in range(2, rank - 1)]
    elif typ == "G":
        edges = [(0, 1, -3, -1)]
    else:
        raise RootSystemError(f"unknown type {typ!r}")
    return edges


def cartan_block(typ: str, rank: int) -> list[list[int]]:
    """Bourbaki Cartan matrix of one simple type; entry [i][j] = <a_i^v, a_j>."""
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for p, q, a, b in dynkin_edges(typ, rank):
        m[p][q], m[q][p] = a, b
    return m


def symmetrizer_block(typ: str, rank: int) -> list[int]:
    if typ in ("A", "D", "E"):
        return [1] * rank
    if typ == "B":
        return [2] * (rank - 1) + [1]
    if typ == "C":
        return [1] * (rank - 1) + [2]
    if typ == "F":
        return [2, 2, 1, 1]
    if typ == "G":
        return [1, 3]
    raise RootSystemError(f"unknown type {typ!r}")


def _rank_allowed(typ: str, rank: int) -> bool:
    return _MIN_RANK[typ] <= rank <= _MAX_RANK.get(typ, rank)


@dataclass(frozen=True)
class RootSystem:
    components: tuple
    cartan: tuple
    symmetrizer: tuple
    # root vector -> its weight; outside equality, hashing and repr
    _weights: dict = field(default_factory=dict, init=False, compare=False,
                           hash=False, repr=False)
    # column j of the Cartan matrix as its nonzero (i, entry) pairs: a_j and
    # its Dynkin neighbours
    _columns: tuple = field(init=False, compare=False, hash=False, repr=False)
    # the root vector of a_i at i
    simple_roots: tuple = field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        n = len(self.cartan)
        object.__setattr__(self, "_columns", tuple(
            tuple((i, row[j]) for i, row in enumerate(self.cartan) if row[j])
            for j in range(n)))
        object.__setattr__(self, "simple_roots", tuple(
            tuple(int(j == i) for j in range(n)) for i in range(n)))

    @property
    def rank(self) -> int:
        return len(self.symmetrizer)

    def pairing(self, i: int, v: RootVector) -> int:
        """<a_i^v, v> for a root vector v."""
        return self.root_to_weight(v)[i]

    def root_to_weight(self, v: RootVector) -> Weight:
        """Fundamental coordinates of an element of the root lattice, summed
        over its nonzero coordinates and memoised on the instance."""
        w = self._weights.get(v)
        if w is None:
            out = [0] * len(v)
            for j, c in enumerate(v):
                if c:
                    for i, a in self._columns[j]:
                        out[i] += a * c
            w = self._weights[v] = tuple(out)
        return w


def build_root_system(type_string: str) -> RootSystem:
    """Parse strings like "A1xA1" or "B3 G2" into a RootSystem."""
    tokens = [t for t in re.split(r"[xX\s]+", type_string.strip()) if t]
    if not tokens:
        raise RootSystemError(f"empty type string {type_string!r}")
    comps = []
    for token in tokens:
        m = _TOKEN.match(token.upper())
        if not m:
            raise RootSystemError(f"cannot parse token {token!r}")
        typ, rank = m.group(1), int(m.group(2))
        if not _rank_allowed(typ, rank):
            raise RootSystemError(f"invalid rank for type {typ}: {token!r}")
        comps.append((typ, rank))
    count = sum(positive_root_count(typ, rank) for typ, rank in comps)
    if count > _MAX_POSITIVE_ROOTS:
        raise RootSystemError(
            f"{type_string.strip()!r} has {count} positive roots, more than the "
            f"{_MAX_POSITIVE_ROOTS} of A100")
    total = sum(r for _, r in comps)
    if total > _MAX_TOTAL_RANK:
        raise RootSystemError(
            f"{type_string.strip()!r} has rank {total}, more than the {_MAX_TOTAL_RANK} of A100")
    cartan = [[0] * total for _ in range(total)]
    symm: list[int] = []
    off = 0
    for typ, rank in comps:
        block = cartan_block(typ, rank)
        for i in range(rank):
            for j in range(rank):
                cartan[off + i][off + j] = block[i][j]
        symm.extend(symmetrizer_block(typ, rank))
        off += rank
    return RootSystem(
        components=tuple(comps),
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=tuple(symm),
    )


def neg(v: RootVector) -> RootVector:
    return tuple(-c for c in v)


def sub(a: RootVector, b: RootVector) -> RootVector:
    return tuple(x - y for x, y in zip(a, b))


def support(v: RootVector) -> frozenset:
    return frozenset(i for i, c in enumerate(v) if c)


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


@lru_cache(maxsize=None)
def root_strings(rs: RootSystem) -> dict:
    """Every positive root, ordered by height and then by vector, mapped to
    its string lengths: p_i is the number of k >= 1 with beta - k*a_i a root.

    Built height by height from the simple roots, whose lengths are all 0:
    beta + a_i is a root iff p_i(beta) > <a_i^v, beta>, and then
    p_i(beta + a_i) = p_i(beta) + 1.  Every gamma - a_i that is a root is
    met this way, and p_i(gamma) stays 0 for the other i.
    """
    n = rs.rank
    strings: dict = {}
    layer = {a: [0] * n for a in rs.simple_roots}
    while layer:
        above: dict = {}
        for beta in sorted(layer):
            p = strings[beta] = tuple(layer[beta])
            for i, (p_i, w_i) in enumerate(zip(p, rs.root_to_weight(beta))):
                if p_i > w_i:
                    up = list(beta)
                    up[i] += 1
                    above.setdefault(tuple(up), [0] * n)[i] = p_i + 1
        layer = above
    return strings


@lru_cache(maxsize=None)
def positive_roots(rs: RootSystem) -> tuple:
    """All positive roots, by height and then by vector (`root_strings`)."""
    return tuple(root_strings(rs))


def positive_root_count(typ: str, rank: int) -> int:
    """Closed-form number of positive roots of one simple type."""
    if typ == "A":
        return rank * (rank + 1) // 2
    if typ in ("B", "C"):
        return rank * rank
    if typ == "D":
        return rank * (rank - 1)
    if typ == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    if typ == "F":
        return 24
    if typ == "G":
        return 6
    raise RootSystemError(f"unknown type {typ!r}")


@dataclass(frozen=True)
class SubdiagramComponent:
    dynkin_type: str
    rank: int
    indices: tuple            # global indices, sorted
    labelings: tuple          # each maps Bourbaki position 0..rank-1 -> global index


def _connected_components(rs: RootSystem, subset: Iterable[int]) -> list[tuple]:
    todo = set(subset)
    comps = []
    while todo:
        seed = min(todo)
        comp = {seed}
        stack = [seed]
        todo.discard(seed)
        while stack:
            i = stack.pop()
            for j in list(todo):
                if rs.cartan[i][j] != 0:
                    comp.add(j)
                    todo.discard(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def _bourbaki_orders(rs: RootSystem, indices: tuple) -> Iterator[tuple]:
    """Every order of a connected subdiagram that a Bourbaki labeling can
    take.  Bourbaki numbers each connected diagram along a path between two
    leaves, and places the one node off that path, if any, last (type D) or
    second (type E)."""
    inside = set(indices)
    nbrs = {i: [j for j, _ in rs._columns[i] if j != i and j in inside] for i in indices}
    leaves = [i for i in indices if len(nbrs[i]) <= 1]
    for a in leaves:
        parent = {a: None}
        stack = [a]
        while stack:
            i = stack.pop()
            for j in nbrs[i]:
                if j not in parent:
                    parent[j] = i
                    stack.append(j)
        for b in leaves:
            if b == a and len(indices) > 1:
                continue
            path = [b]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            off = inside.difference(path)
            if not off:
                yield tuple(path)
            elif len(off) == 1:
                yield (*path, *off)
                yield (path[0], *off, *path[1:])


def _match_labelings(rs: RootSystem, orders: Iterable[tuple], edges: list[tuple]) -> list[tuple]:
    """The orders of a connected subdiagram, as bijections position -> index,
    that carry a type's edges onto edges with the same Cartan entries.  Both
    diagrams are trees on as many nodes, so such an order reproduces the
    whole Cartan matrix of the type."""
    cartan = rs.cartan
    return sorted(
        order for order in orders
        if all(cartan[order[p]][order[q]] == a and cartan[order[q]][order[p]] == b
               for p, q, a, b in edges))


def classify_component(rs: RootSystem, comp: tuple) -> SubdiagramComponent:
    """Type and every Bourbaki-consistent labeling of a connected subdiagram,
    its indices sorted."""
    k = len(comp)
    orders = tuple(_bourbaki_orders(rs, comp))
    for typ in (t for t in "ABCDEFG" if _rank_allowed(t, k)):
        labelings = _match_labelings(rs, orders, dynkin_edges(typ, k))
        if labelings:
            return SubdiagramComponent(typ, k, comp, tuple(labelings))
    raise RootSystemError(f"subdiagram {comp} matches no Dynkin type")


def classify_subdiagram(rs: RootSystem, subset: Iterable[int]) -> list[SubdiagramComponent]:
    """Split the induced subdiagram into components, each with its type and
    every Bourbaki-consistent labeling."""
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    return [classify_component(rs, comp) for comp in _connected_components(rs, subset)]
