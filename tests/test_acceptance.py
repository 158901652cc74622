"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
all tolerances are exact (integer/rational arithmetic throughout).
"""

import time
from collections import Counter
from fractions import Fraction

import pytest

from catalog_bruteforce import bruteforce_catalog
from irreps_reference import reference_irrep
from sphmoduli import (
    build_context,
    build_model,
    build_root_system,
    check_span_closure,
    compatible_with_sp,
    enumerate_n_adapted_subsets,
    freudenthal_multiplicities,
    invariant_quotient_weights,
    is_n_adapted_singleton,
    is_n_adapted_subset,
    oracle_tangent_weights,
    spherical_root_catalog,
    tangent_space,
    weyl_dimension,
)

BATTERY_TIME_BUDGET = 300.0   # seconds, criterion 2
EXAMPLE_TIME_BUDGET = 1.0        # seconds, criterion 1


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def battery_analysis(battery):
    """Models, invariant quotients and oracle reports for the whole battery,
    with the total wall time spent producing them."""
    t0 = time.monotonic()
    records = []
    for name, ctx in battery:
        model = build_model(ctx)
        quotient = invariant_quotient_weights(model)
        oracle_report = oracle_tangent_weights(model, quotient)
        records.append((name, ctx, model, quotient, oracle_report))
    elapsed = time.monotonic() - t0
    return records, elapsed


def test_criterion_1_crossed_lines_example():
    t0 = time.monotonic()
    ctx = build_context(build_root_system("A1xA1"), [(2, 0), (4, 2)])
    report = tangent_space(ctx)
    records = enumerate_n_adapted_subsets(ctx)
    elapsed = time.monotonic() - t0
    maximal = [rec for rec in records if rec.maximal]
    ok = (
        report.dimension == 2
        and len(maximal) == 2
        and all(rec.dimension == 1 for rec in maximal)
        and elapsed < EXAMPLE_TIME_BUDGET
    )
    _verdict(1, ok, f"tangent dim {report.dimension}, {len(maximal)} maximal "
                    f"subsets of sizes {[rec.dimension for rec in maximal]}, "
                    f"{elapsed:.3f}s")
    assert report.dimension == 2
    assert len(maximal) == 2
    assert all(rec.dimension == 1 for rec in maximal)
    assert elapsed < EXAMPLE_TIME_BUDGET


def test_criterion_2_oracle_matches_combinatorics(battery, battery_analysis):
    records, build_elapsed = battery_analysis
    assert len(records) >= 30
    t0 = time.monotonic()
    mismatches = []
    for name, ctx, model, quotient, oracle_report in records:
        combinatorial = tangent_space(ctx).weight_coords()
        if oracle_report.weight_coords() != combinatorial:
            mismatches.append((name, sorted(oracle_report.weight_coords()),
                               sorted(combinatorial)))
        if any(d != 1 for d in oracle_report.weights.values()):
            mismatches.append((name, "multiplicity", dict(oracle_report.weights)))
    elapsed = build_elapsed + (time.monotonic() - t0)
    ok = not mismatches and elapsed < BATTERY_TIME_BUDGET
    _verdict(2, ok, f"{len(records)} contexts, {len(mismatches)} mismatches, "
                    f"{elapsed:.1f}s")
    assert mismatches == []
    assert elapsed < BATTERY_TIME_BUDGET


CATALOG_COUNTS = [
    ("A1", 2), ("A1xA1", 5), ("A2", 5), ("A3", 11), ("B2", 7), ("B3", 13),
    ("G2", 6),
]


def test_criterion_3_catalog_counts():
    failures = []
    for name, expected in CATALOG_COUNTS:
        rs = build_root_system(name)
        enumerated = {r.coords for r in spherical_root_catalog(rs)}
        brute = bruteforce_catalog(rs)
        if enumerated != brute or len(enumerated) != expected:
            failures.append(
                f"{name}: enumerated {len(enumerated)}, brute-force {len(brute)}, "
                f"expected {expected}"
            )
    ok = not failures
    _verdict(3, ok, "all counts match" if ok else "; ".join(failures))
    assert not failures, failures


def test_criterion_4_quotient_weight_properties(battery_analysis):
    records, _ = battery_analysis
    violations = []
    for name, ctx, model, quotient, _oracle in records:
        catalog = {r.coords: r for r in spherical_root_catalog(ctx.rs)}
        for gamma, space in quotient.items():
            root = catalog.get(gamma)
            if root is None:
                violations.append((name, gamma, "not in catalog"))
                continue
            if not compatible_with_sp(root, ctx.sp_gamma):
                violations.append((name, gamma, "incompatible"))
            if root.kind != "A1" and space.dimension > 1:
                violations.append((name, gamma, f"dimension {space.dimension}"))
    ok = not violations
    _verdict(4, ok, f"{len(violations)} violations")
    assert violations == []


def test_criterion_5_span_closure_and_exclusion(battery):
    failures = []
    for name, ctx in battery:
        records = enumerate_n_adapted_subsets(ctx)
        for rec in records:
            if not all(is_n_adapted_singleton(ctx, r).ok for r in rec.roots):
                failures.append((name, rec, "member fails the singleton test"))
                continue
            if not check_span_closure(ctx, rec.roots):
                failures.append((name, rec, "span closure"))
        catalog = {r.coords: r for r in spherical_root_catalog(ctx.rs)}
        for i in range(ctx.n):
            single = tuple(1 if j == i else 0 for j in range(ctx.n))
            double = tuple(2 if j == i else 0 for j in range(ctx.n))
            if (is_n_adapted_singleton(ctx, catalog[single]).ok
                    and is_n_adapted_singleton(ctx, catalog[double]).ok):
                failures.append((name, i, "root and double both accepted"))
    ok = not failures
    _verdict(5, ok, f"{len(failures)} failures")
    assert failures == []


def test_criterion_6_representation_substrate(battery_analysis):
    records, _ = battery_analysis
    failures = []
    for name, ctx, model, _quotient, _oracle in records:
        for lam, mod in zip(ctx.basis, model.modules):
            if mod.dim != weyl_dimension(ctx.rs, lam):
                failures.append((name, lam, "dimension"))
            if Counter(tuple(w) for w in mod.weights) != freudenthal_multiplicities(ctx.rs, lam):
                failures.append((name, lam, "multiplicities"))
            ref = reference_irrep(ctx.rs, lam)
            if (mod.lower, mod.raise_) != (ref.lower, ref.raise_):
                failures.append((name, lam, "tables differ from the reference"))
            if not _contravariant(mod, ref):
                failures.append((name, lam, "contravariance"))
    ok = not failures
    _verdict(6, ok, f"{len(failures)} failures over "
                    f"{sum(len(ctx.basis) for _, ctx in _pairs(records))} modules")
    assert failures == []


def _pairs(records):
    return [(name, ctx) for name, ctx, *_ in records]


def _contravariant(mod, ref) -> bool:
    # the contravariant form of the pairwise reference on the same basis,
    # <e_i u, w> = <u, f_i w>, read against the module's tables; pairs in
    # different weight spaces vanish on both sides by the grading, so it
    # suffices to check the pairs with matching weights
    n = mod.rs.rank
    for mu, ids in mod.spaces.items():
        for i in range(n):
            upper = mod.spaces.get(tuple(
                m + x for m, x in zip(mu, mod.rs.root_to_weight(
                    tuple(1 if j == i else 0 for j in range(n))))
            ), ())
            for u in upper:
                for w in ids:
                    lhs = sum(
                        (c * ref.form(t, w) for t, c in mod.raise_[i].get(u, ())),
                        Fraction(0),
                    )
                    rhs = sum(
                        (c * ref.form(u, t) for t, c in mod.lower[i].get(w, ())),
                        Fraction(0),
                    )
                    if lhs != rhs:
                        return False
    return True


def test_criterion_7_singleton_subset_consistency(battery):
    disagreements = []
    for name, ctx in battery:
        for root in spherical_root_catalog(ctx.rs):
            single = is_n_adapted_singleton(ctx, root).ok
            subset = is_n_adapted_subset(ctx, [root]).ok
            if single != subset:
                disagreements.append((name, root.name(), single, subset))
    ok = not disagreements
    _verdict(7, ok, f"{len(disagreements)} disagreements")
    assert disagreements == []
