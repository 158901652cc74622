"""Exhaustive reference for the N-adapted subset decision.

Tries every choice of halves of the doubled members, 2^d candidates for d
doubled members, decides each with `is_adapted_subset` and keeps a candidate
only when doubling its simple members with a single color functional maps it
onto the set.  `adapted.is_n_adapted_subset` reads the halvable members off
the color counts instead; the two must give the same `ok` and `witness`.
"""

from itertools import product

from sphmoduli.adapted import NAdaptedVerdict, _half, is_adapted_subset
from sphmoduli.sphroots import KIND_DOUBLE, KIND_SIMPLE


def reference_n_adapted_subset(ctx, sigma) -> NAdaptedVerdict:
    sigma = tuple(sorted({r.coords: r for r in sigma}.values(), key=lambda r: r.coords))
    doubled = [r for r in sigma if r.kind == KIND_DOUBLE]
    for choice in product((False, True), repeat=len(doubled)):
        halved = {r.coords for r, c in zip(doubled, choice) if c}
        candidate = [
            _half(r) if r.coords in halved else r
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
