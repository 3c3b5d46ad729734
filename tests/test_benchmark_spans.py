"""The benchmark's traced metrics name spans that perfbench/spans.py can
wrap: read from perfbench/run.py and spans.py as source, since importing
run.py sets the BLAS thread variables and sys.path."""

import ast
import importlib
import inspect
from pathlib import Path

from quclab.processes import ClassicalProcess
from quclab.sources import QuantumSource

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(path: Path) -> dict:
    """The literal values of the module-level assignments in `path`."""
    values = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                values[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return values


def test_every_traced_span_is_a_public_layer_function():
    run, spans = _assigned(PERFBENCH / "run.py"), _assigned(PERFBENCH / "spans.py")
    names = {span for _, span, _ in run["SPAN_METRICS"]} | \
            {span for _, _, span in run["COUNTER_METRICS"]}
    assert names
    for name in sorted(names):
        layer, attr = name.split(".")
        assert layer in spans["LAYERS"], name
        module = importlib.import_module(f"quclab.{layer}")
        if name == "sources.marginal":
            assert inspect.isfunction(QuantumSource.__dict__["marginal"])
        elif name == "processes.marginal":
            assert any(issubclass(cls, ClassicalProcess) and "marginal" in cls.__dict__
                       for cls in vars(module).values() if isinstance(cls, type))
        else:
            fn = getattr(module, attr, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
            assert not attr.startswith("_") and name not in spans["UNTRACED"], name
