import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
