"""Decision procedures for adapted and N-adapted spherical roots.

Singleton tests evaluate an explicit list of lattice and dual-cone
conditions.  Subset tests assemble the unique candidate system (parabolic
set, root set, the a-colors with their pairings) and verify its axioms
together with the two dual-cone conditions; the a-colors are searched over
all identifications consistent with equal pairings.  The other colors are
not built: the dual-cone conditions read only the coroots that they are
halves or restrictions of.

The subset decision runs thousands of times per context in a walk.  It
reads the data of each simple root (color functionals and the dual-cone
data of each functional) from attributes the context computes when it is
built, what is keyed by roots (lattice coefficients, member facts, Cartan
pairings) from the memos of the context and its root system, and the
sandwich bounds from the catalog roots; see `wmonoid`, `rootsys` and
`sphroots`.  The walk skips every root that a member-level exit rejects in
any set (`_member_facts`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

from . import linalg
from .rootsys import RootSystem
from .sphroots import (
    KIND_DOUBLE,
    KIND_PAIR,
    KIND_SIMPLE,
    SphericalRoot,
    compatible_with_sp,
    spherical_root_catalog,
)
from .wmonoid import WeightMonoidContext

# Failing-condition tags for singleton verdicts, in evaluation order.
COND_LATTICE = "not_in_lattice"
COND_COMPAT = "incompatible_parabolic"
COND_RAYS = "ray_not_coroot_multiple"
COND_COLOR_COUNT = "color_count"
COND_COLOR_CONE = "color_outside_dual_cone"
COND_DUAL_BOUND = "dual_value_above_one"
COND_HALF_LATTICE = "half_root_in_lattice"
COND_PARITY = "odd_coroot_value"
COND_COROOT_MATCH = "coroot_mismatch"

# Member-level exits of the subset decisions (see `_member_facts`).
EXIT_LATTICE = "lattice"
EXIT_ONE_COLOR = "one_color"
EXIT_COLOR_PAIR = "color_pair"


class SearchBudgetExceeded(RuntimeError):
    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SingletonVerdict:
    root: SphericalRoot
    ok: bool
    failed: Optional[str] = None

    def __bool__(self):
        return self.ok


def _coroot_is_ray_multiple(ctx: WeightMonoidContext, k: int) -> bool:
    """Is some coroot of a simple root outside sp a positive multiple of the
    k-th dual basis functional?"""
    return any(k in ctx.cones[ctx.coroots[i]][0] for i in range(ctx.n) if i not in ctx.sp_gamma)


def _singleton(ctx: WeightMonoidContext, root: SphericalRoot, strict: bool) -> SingletonVerdict:
    """Shared body of the two singleton tests.  `strict` selects the variant
    where a simple root needs both color functionals distinct and where the
    doubled simple root drops the half-not-in-lattice requirement."""
    coeffs = ctx.in_lattice_root(root.coords)
    if coeffs is None:
        return SingletonVerdict(root, False, COND_LATTICE)
    if not compatible_with_sp(root, ctx.sp_gamma):
        return SingletonVerdict(root, False, COND_COMPAT)
    if root.kind != KIND_SIMPLE:
        for k, c in enumerate(coeffs):
            if c > 0 and not _coroot_is_ray_multiple(ctx, k):
                return SingletonVerdict(root, False, COND_RAYS)
    if root.kind == KIND_SIMPLE:
        colors = ctx.colors[root.simple_index]
        wanted = (2,) if strict else (1, 2)
        if len(colors) not in wanted:
            return SingletonVerdict(root, False, COND_COLOR_COUNT)
        if any(v < 0 for f in colors for v in f):
            return SingletonVerdict(root, False, COND_COLOR_CONE)
        if any(c > 1 for c in coeffs):
            return SingletonVerdict(root, False, COND_DUAL_BOUND)
    failed = _member_condition(ctx, root, strict)
    return SingletonVerdict(root, failed is None, failed)


def _member_condition(ctx: WeightMonoidContext, root: SphericalRoot, strict: bool) -> Optional[str]:
    """The lattice condition a doubled or pair root fails, or None.  For
    2a_i, a_i must lie outside the lattice (not asked when `strict`) and the
    coroot of a_i must be even on F; for a_i + a_j, the two coroots must
    agree on F."""
    if root.kind == KIND_DOUBLE:
        i = root.simple_index
        if not strict and ctx.colors[i] is not None:
            return COND_HALF_LATTICE
        if any(w[i] % 2 for w in ctx.basis):
            return COND_PARITY
    if root.kind == KIND_PAIR:
        i, j = sorted(root.support)
        if any(w[i] != w[j] for w in ctx.basis):
            return COND_COROOT_MATCH
    return None


def is_adapted_singleton(ctx: WeightMonoidContext, root: SphericalRoot) -> SingletonVerdict:
    return _singleton(ctx, root, strict=False)


def is_n_adapted_singleton(ctx: WeightMonoidContext, root: SphericalRoot) -> SingletonVerdict:
    return _singleton(ctx, root, strict=True)


@dataclass(frozen=True)
class TangentReport:
    weights: tuple            # SphericalRoots, sorted by coords
    rejected: tuple           # (SphericalRoot, failing tag) pairs

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def weight_coords(self) -> set:
        return {w.coords for w in self.weights}


def tangent_space(ctx: WeightMonoidContext) -> TangentReport:
    """Weights of the tangent space at the most degenerate point: the catalog
    roots that pass the strict singleton test, each with multiplicity one."""
    weights = []
    rejected = []
    for root in spherical_root_catalog(ctx.rs):
        verdict = is_n_adapted_singleton(ctx, root)
        if verdict.ok:
            weights.append(root)
        else:
            rejected.append((root, verdict.failed))
    return TangentReport(tuple(weights), tuple(rejected))


# ---------------------------------------------------------------------------
# Subset-level machinery
# ---------------------------------------------------------------------------

@dataclass
class SphericalSystemCheck:
    verdicts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())


def check_system_axioms(
    rs: RootSystem,
    sp: Iterable[int],
    sigma: Sequence[SphericalRoot],
    pairing: dict,
) -> SphericalSystemCheck:
    """Verify the axioms of a candidate system on abstract data.

    `pairing` maps each color id to its integer values on the elements of
    `sigma` (in order).  Raises ValueError on structurally malformed input.
    """
    sp = frozenset(sp)
    sigma = tuple(sigma)
    if len({r.coords for r in sigma}) != len(sigma):
        raise ValueError("sigma contains repeated roots")
    for cid, values in pairing.items():
        if len(values) != len(sigma):
            raise ValueError(f"pairing for color {cid!r} has wrong length")
    verdicts = {}
    simple_positions = [k for k, r in enumerate(sigma) if r.kind == KIND_SIMPLE]
    a_of = {
        k: [cid for cid, values in pairing.items() if values[k] == 1]
        for k in simple_positions
    }

    verdicts["A1"] = all(
        v <= 1 and (v != 1 or sigma[k].kind == KIND_SIMPLE)
        for values in pairing.values()
        for k, v in enumerate(values)
    )
    ok2 = True
    for k in simple_positions:
        if len(a_of[k]) != 2:
            ok2 = False
            continue
        dplus, dminus = a_of[k]
        i = sigma[k].simple_index
        for m, r in enumerate(sigma):
            if pairing[dplus][m] + pairing[dminus][m] != rs.pairing(i, r.coords):
                ok2 = False
    verdicts["A2"] = ok2
    covered = {cid for k in simple_positions for cid in a_of[k]}
    verdicts["A3"] = covered == set(pairing)
    verdicts["Sigma1"] = _axiom_sigma1(rs, sigma)
    verdicts["Sigma2"] = _axiom_sigma2(rs, sigma)
    verdicts["S"] = all(compatible_with_sp(r, sp) for r in sigma)
    return SphericalSystemCheck(verdicts=verdicts)


def _axiom_sigma1(rs: RootSystem, sigma: Sequence[SphericalRoot]) -> bool:
    for r in sigma:
        if r.kind != KIND_DOUBLE:
            continue
        i = r.simple_index
        for other in sigma:
            if other.coords == r.coords:
                continue
            v = rs.pairing(i, other.coords)
            if v % 2 or v > 0:
                return False
    return True


def _axiom_sigma2(rs: RootSystem, sigma: Sequence[SphericalRoot]) -> bool:
    for r in sigma:
        if r.kind != KIND_PAIR:
            continue
        i, j = sorted(r.support)
        for other in sigma:
            if rs.pairing(i, other.coords) != rs.pairing(j, other.coords):
                return False
    return True


class _MemberFacts(NamedTuple):
    exit: Optional[str]                 # member-level exit, see `_member_facts`
    condition: Optional[str]            # `_member_condition(ctx, root, strict=False)`
    member: SphericalRoot               # what the N-adapted candidate holds
    positive: frozenset                 # the k with a positive lattice coefficient


def _member_facts(ctx: WeightMonoidContext, root: SphericalRoot) -> _MemberFacts:
    """What the subset decisions read of one root, memoised on the context
    by root vector (the catalog holds one root per vector).

    `exit` is the one home of the member-level exits.  When it is not None,
    `is_n_adapted_subset` rejects every root set holding the root before
    any color partition is searched.  A simple root needs exactly two color
    functionals: off the lattice it fails "lattice", with one no member maps
    to it ("one_color"), and with none or three or more it fails
    "color_pair".  A doubled root 2a_i whose a_i has one color functional is
    replaced by that half, which passes; every other root must lie in the
    lattice.  `is_adapted_subset` exits on "lattice" and "color_pair".
    `member` is the half for such a doubled root, the root itself
    otherwise."""
    facts = ctx._member_facts.get(root.coords)
    if facts is None:
        exit, member = None, root
        coeffs = ctx.in_lattice_root(root.coords)
        if coeffs is None:
            exit, coeffs = EXIT_LATTICE, ()
        elif root.kind == KIND_SIMPLE:
            count = len(ctx.colors[root.simple_index])
            exit = None if count == 2 else EXIT_ONE_COLOR if count == 1 else EXIT_COLOR_PAIR
        elif root.kind == KIND_DOUBLE and len(ctx.colors[root.simple_index] or ()) == 1:
            member = _half(ctx.rs, root)
        facts = ctx._member_facts[root.coords] = _MemberFacts(
            exit, _member_condition(ctx, root, strict=False), member,
            frozenset(k for k, c in enumerate(coeffs) if c > 0))
    return facts


def _token_partitions(tokens: list, functionals: dict):
    """All partitions of color tokens into functional-homogeneous blocks that
    keep the two tokens of any one simple root apart.  Tokens are (k, sign)
    with k the position of the root in sigma; `functionals` maps each token
    to its functional (see `is_adapted_subset`)."""
    by_functional: dict = {}
    for t in tokens:
        by_functional.setdefault(functionals[t], []).append(t)

    def partitions_of(group: list):
        if not group:
            yield []
            return
        first, rest = group[0], group[1:]
        for sub in partitions_of(rest):
            for b, block in enumerate(sub):
                if any(t[0] == first[0] for t in block):
                    continue
                yield sub[:b] + [[first] + block] + sub[b + 1:]
            yield [[first]] + sub

    groups = [sorted(g) for g in by_functional.values()]
    for combo in product(*(list(partitions_of(g)) for g in groups)):
        blocks = [tuple(b) for part in combo for b in part]
        yield sorted(blocks)


def is_adapted_subset(ctx: WeightMonoidContext, sigma: Sequence[SphericalRoot]) -> SphericalSystemCheck:
    """Decide whether the root set is realized by some spherical variety with
    this weight monoid, by building the unique candidate system, checking its
    axioms with `check_system_axioms`, and adding the conditions that involve
    the lattice of F and its dual cone."""
    rs = ctx.rs
    sp = ctx.sp_gamma
    sigma = tuple(sorted({r.coords: r for r in sigma}.values(), key=lambda r: r.coords))
    facts = [_member_facts(ctx, r) for r in sigma]
    exits = {f.exit for f in facts}
    for tag in (EXIT_LATTICE, EXIT_COLOR_PAIR):
        if tag in exits:
            return SphericalSystemCheck(verdicts={tag: False})

    simple_positions = [k for k, r in enumerate(sigma) if r.kind == KIND_SIMPLE]
    tokens = [(k, sign) for k in simple_positions for sign in "+-"]

    # The a-colors: blocks of tokens with equal functionals such that
    # exactly two blocks pair to 1 with each simple member of sigma.  When no
    # partition qualifies, the singleton blocks (one of those tried) go to
    # the axiom check, which rejects them under A2.  The token (k, "+") of
    # the simple member a_i = sigma[k] carries the first of its color
    # functionals and (k, "-") the last.
    functionals = {
        (k, sign): ctx.colors[sigma[k].simple_index][0 if sign == "+" else -1]
        for k, sign in tokens
    }
    coeffs = [ctx.in_lattice_root(r.coords) for r in sigma] if tokens else []
    values = {
        t: tuple(sum(a * c for a, c in zip(f, cs)) for cs in coeffs)
        for t, f in functionals.items()
    }
    part = next(
        (
            p for p in _token_partitions(tokens, functionals)
            if all(sum(values[b[0]][k] == 1 for b in p) == 2 for k in simple_positions)
        ),
        sorted((t,) for t in tokens),
    )
    check = check_system_axioms(rs, sp, sigma, {b: values[b[0]] for b in part})
    v = check.verdicts

    # Augmentation of the pairing to the full lattice generated by F.  The
    # two color functionals of a simple member, e_k and the coroot minus
    # e_k, already sum to its coroot (see `WeightMonoidContext.colors`), so
    # only sigma1 and sigma2 can fail here.
    v["sigma1"] = v["sigma2"] = True
    for r, f in zip(sigma, facts):
        if f.condition:
            v["sigma1" if r.kind == KIND_DOUBLE else "sigma2"] = False

    # Cone data of every color: an a-color by its functional; the color of a
    # doubled member 2a_i by the coroot of a_i, of which it is half; and the
    # color of each simple root outside sp and the simple members by its
    # coroot.
    half_members = {r.simple_index for r in sigma if r.kind == KIND_DOUBLE}
    sigma_simples = {r.simple_index for r in sigma if r.kind == KIND_SIMPLE}
    cones = [ctx.cones[functionals[b[0]]] for b in part] + [
        ctx.cones[ctx.coroots[i]] for i in range(ctx.n)
        if i in half_members or (i not in sp and i not in sigma_simples)
    ]
    rays = frozenset().union(*(c[0] for c in cones))
    v["rays"] = all(f.positive <= rays for f in facts)
    v["dual_cone"] = all(c[1] for c in cones)
    return check


@dataclass(frozen=True)
class NAdaptedVerdict:
    ok: bool
    witness: Optional[tuple] = None     # the adapted set it contracts from

    def __bool__(self):
        return self.ok


def is_n_adapted_subset(ctx: WeightMonoidContext, sigma: Sequence[SphericalRoot]) -> NAdaptedVerdict:
    """A set is N-adapted when some adapted set maps onto it by doubling
    exactly its simple members with a single color functional.  No member
    maps to such a simple root, so a set holding one is not N-adapted.  A
    doubled member 2a_i whose a_i has a single color functional has a_i in
    the lattice, so no adapted set holds 2a_i itself (sigma1) and it can
    only come from its half.  So the one candidate halves every such member
    and keeps the rest; it maps onto the set.  The exits and the halves are
    read from `_member_facts`."""
    sigma = tuple(sorted({r.coords: r for r in sigma}.values(), key=lambda r: r.coords))
    facts = [_member_facts(ctx, r) for r in sigma]
    if any(f.exit for f in facts):
        return NAdaptedVerdict(False)
    candidate = tuple(f.member for f in facts)
    if is_adapted_subset(ctx, candidate).ok:
        return NAdaptedVerdict(True, candidate)
    return NAdaptedVerdict(False)


def _half(rs: RootSystem, doubled: SphericalRoot) -> SphericalRoot:
    """The catalog entry of the simple root a_i of the doubled root 2a_i."""
    catalog = spherical_root_catalog(rs)
    half = rs.simple_roots[doubled.simple_index]
    return catalog[bisect_left(catalog, half, key=lambda r: r.coords)]


@dataclass(frozen=True)
class SubsetRecord:
    roots: tuple
    maximal: bool

    @property
    def dimension(self) -> int:
        return len(self.roots)


def enumerate_n_adapted_subsets(
    ctx: WeightMonoidContext,
    max_size: Optional[int] = None,
    budget: int = 200_000,
) -> list[SubsetRecord]:
    """All N-adapted subsets of the catalog with linearly independent
    vectors, up to `max_size`, with inclusion-maximal ones flagged.

    The walk ranges over the catalog roots without a member-level exit
    (`_member_facts`): `is_n_adapted_subset` rejects every set holding any
    other root before it searches the colors, so no such set is built.
    `budget` bounds the number of sets examined, the steps of the walk over
    those roots."""
    if max_size is None:
        max_size = ctx.r
    if not 0 <= max_size <= ctx.r:
        raise ValueError(f"max_size {max_size} must lie in 0..{ctx.r}")
    roots = [r for r in spherical_root_catalog(ctx.rs) if _member_facts(ctx, r).exit is None]
    accepted = []
    examined = 0

    def record(subset: tuple) -> None:
        if is_n_adapted_subset(ctx, subset).ok:
            accepted.append(subset)

    def extend(start: int, chosen: tuple, echelon: linalg.Echelon) -> None:
        nonlocal examined
        if examined >= budget:
            raise SearchBudgetExceeded(
                f"needs more than {budget} candidate subsets",
                partial=_flag_maximal(accepted),
            )
        examined += 1
        record(chosen)
        if len(chosen) == max_size:
            return
        for idx in range(start, len(roots)):
            root = roots[idx]
            grown = echelon.copy()
            if grown.add(root.coords):
                extend(idx + 1, chosen + (root,), grown)

    extend(0, (), linalg.Echelon())
    return _flag_maximal(accepted)


def _flag_maximal(accepted: list) -> list[SubsetRecord]:
    keys = [frozenset(r.coords for r in subset) for subset in accepted]
    records = []
    order = sorted(range(len(accepted)), key=lambda i: (len(keys[i]), sorted(keys[i])))
    for i in order:
        maximal = not any(keys[i] < keys[j] for j in range(len(accepted)) if j != i)
        records.append(SubsetRecord(tuple(accepted[i]), maximal))
    return records
