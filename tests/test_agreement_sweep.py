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
