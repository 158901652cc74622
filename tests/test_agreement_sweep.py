import importlib.util
import time
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "agreement_sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("agreement_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rank_two_slice_of_the_agreement_sweep():
    # the grids of rank <= 2 of tools/agreement_sweep.py: both routes give
    # the same tangent weights on every context, within a wall-clock budget
    # (about 1.3 s on a 2026 x86-64 host, Python 3.11)
    sweep = _load_sweep()
    start = time.perf_counter()
    count, _, disagreements = sweep.sweep(max_rank=2)
    elapsed = time.perf_counter() - start
    assert disagreements == []
    assert count == 378
    assert elapsed < 10.0, f"rank <= 2 agreement sweep took {elapsed:.1f} s"


def test_sweep_counts_an_oracle_multiplicity_above_one(monkeypatch):
    # the oracle's weights equal the tangent weights, but one has
    # multiplicity 2: that is a disagreement, as it is for `analyze --oracle`
    import sphmoduli
    from sphmoduli.oracle import OracleReport

    real = sphmoduli.oracle_report

    def doubled(ctx, dim_cap):
        weights = dict(real(ctx, dim_cap=dim_cap).weights)
        if weights:
            weights[min(weights)] = 2
        return OracleReport(weights)

    monkeypatch.setattr(sphmoduli, "oracle_report", doubled)
    count, _, disagreements = _load_sweep().sweep(max_rank=1)
    # of the six A1 bases, F = (2) and F = (4) have a tangent weight, 2a
    assert count == 6
    assert [basis for _, basis, _, _ in disagreements] == [((2,),), ((4,),)]
    for _, _, tangent, oracle in disagreements:
        assert [weight for weight, _ in oracle] == tangent
        assert [m for _, m in oracle] == [2] + [1] * (len(tangent) - 1)
