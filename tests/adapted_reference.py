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

`check_span_closure` states a property of the accepted sets, not a second
decision: no catalog root outside an N-adapted set, in its nonnegative
integer span, passes the strict singleton test.
"""

from itertools import product

from sphmoduli import linalg
from sphmoduli.adapted import (
    NAdaptedVerdict,
    SubsetRecord,
    _half,
    is_adapted_subset,
    is_n_adapted_singleton,
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
            if r.kind == KIND_SIMPLE and len(ctx.colors[r.simple_index]) == 1:
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


def check_span_closure(ctx, sigma) -> bool:
    """No catalog root outside the set, lying in its nonnegative integer
    span, may pass the strict singleton test.  Every member must pass it;
    that precondition is enforced."""
    sigma = tuple(sigma)
    for r in sigma:
        if not is_n_adapted_singleton(ctx, r).ok:
            raise ValueError(f"precondition violated: {r.name()} is not N-adapted")
    members = {r.coords for r in sigma}
    for root in spherical_root_catalog(ctx.rs):
        if root.coords in members:
            continue
        if _in_nonnegative_span(root.coords, [r.coords for r in sigma]):
            if is_n_adapted_singleton(ctx, root).ok:
                return False
    return True


def _in_nonnegative_span(target, generators) -> bool:
    if all(c == 0 for c in target):
        return True
    if not generators:
        return False
    head, rest = generators[0], generators[1:]
    bound = min(
        (target[i] // head[i] for i in range(len(target)) if head[i]),
        default=0,
    )
    for k in range(bound + 1):
        remainder = tuple(t - k * h for t, h in zip(target, head))
        if any(x < 0 for x in remainder):
            break
        if _in_nonnegative_span(remainder, rest):
            return True
    return False
