"""Exhaustive references for the N-adapted subset decision and walk.

`reference_n_adapted_subset` tries every choice of halves of the doubled
members, 2^d candidates for d doubled members, decides each with
`is_adapted_subset` and keeps a candidate only when doubling its simple
members with a single color functional maps it onto the set.
`adapted.is_n_adapted_subset` reads the halvable members off the color
counts instead; the two must give the same `ok` and `witness`.

`reference_n_adapted_subsets` walks every independent subset of the whole
catalog and decides each with `is_n_adapted_subset`.
`adapted.enumerate_n_adapted_subsets` walks only the roots without a
member-level exit; the two must give the same records.
"""

from itertools import product

from sphmoduli import linalg
from sphmoduli.adapted import (
    NAdaptedVerdict,
    SubsetRecord,
    _half,
    is_adapted_subset,
    is_n_adapted_subset,
)
from sphmoduli.sphroots import KIND_DOUBLE, KIND_SIMPLE, spherical_root_catalog


def reference_n_adapted_subset(ctx, sigma) -> NAdaptedVerdict:
    sigma = tuple(sorted({r.coords: r for r in sigma}.values(), key=lambda r: r.coords))
    doubled = [r for r in sigma if r.kind == KIND_DOUBLE]
    for choice in product((False, True), repeat=len(doubled)):
        halved = {r.coords for r, c in zip(doubled, choice) if c}
        candidate = [
            _half(ctx.rs, r) if r.coords in halved else r
            for r in sigma
        ]
        if not is_adapted_subset(ctx, candidate).ok:
            continue
        image = set()
        for r in candidate:
            if r.kind == KIND_SIMPLE and len(ctx.color_functionals(r.simple_index)) == 1:
                image.add(tuple(2 * c for c in r.coords))
            else:
                image.add(r.coords)
        if image == {r.coords for r in sigma}:
            return NAdaptedVerdict(True, tuple(candidate))
    return NAdaptedVerdict(False)


def independent_subsets(catalog, max_size):
    """Every subset of `catalog` with linearly independent vectors and at
    most `max_size` members, as tuples in catalog order."""
    out = []

    def extend(start, chosen, echelon):
        out.append(chosen)
        if len(chosen) == max_size:
            return
        for idx in range(start, len(catalog)):
            grown = echelon.copy()
            if grown.add(catalog[idx].coords):
                extend(idx + 1, chosen + (catalog[idx],), grown)

    extend(0, (), linalg.Echelon())
    return out


def reference_n_adapted_subsets(ctx, max_size=None) -> list:
    """The N-adapted independent subsets of the whole catalog as
    `SubsetRecord`s, ordered by size and then by sorted root vectors, each
    flagged maximal when no other accepted set holds it."""
    max_size = ctx.r if max_size is None else max_size
    accepted = [s for s in independent_subsets(spherical_root_catalog(ctx.rs), max_size)
                if is_n_adapted_subset(ctx, s).ok]
    keys = [frozenset(r.coords for r in s) for s in accepted]
    order = sorted(range(len(accepted)), key=lambda i: (len(keys[i]), sorted(keys[i])))
    return [SubsetRecord(accepted[i], not any(keys[i] < other for other in keys)) for i in order]
