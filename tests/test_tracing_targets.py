import ast
import importlib
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _targets():
    """The TARGETS tuple of the benchmark's tracer, read from its source."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_every_traced_function_exists():
    # the tracer wraps these by name, so a renamed or moved function would
    # break `perfbench/run.py --trace 1`
    targets = _targets()
    assert targets
    for module, function, _layer in targets:
        mod = importlib.import_module(f"sphmoduli.{module}")
        assert callable(getattr(mod, function, None)), f"sphmoduli.{module}.{function}"


def test_benchmark_selftest_passes():
    # the self-test runs genuine analyses through the benchmark's checker and
    # the tracer's module-dimension check, so a module or report change that
    # the benchmark would flag fails here first
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
