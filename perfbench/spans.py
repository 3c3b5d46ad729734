"""Span tracing of quclab's public functions, installed from outside the package.

Every public function of each layer module is replaced, in every quclab
module namespace that holds it, by a wrapper that records a span
(name, start, end, parent).  The marginal methods of QuantumSource and of
every ClassicalProcess subclass are wrapped too.  Spans stay in memory and are
written out once, when the traced process ends.

Run as a script, it runs the quclab CLI under tracing:

    python3 perfbench/spans.py SPANS_OUT.json build-projector --n 9 ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("operators", "processes", "codes", "channels", "sources", "info",
          "projectors", "harness", "cli")
# Called once per sequence inside marginals and codes: a span per call would
# cost more than the work it measures.
UNTRACED = {"processes.index_sequence", "processes.sequence_index"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after(self, name: str, args, kwargs, result) -> None:
        """Counters read from a call's arguments or result."""
        if name == "projectors.orbit_join_basis" and hasattr(result, "samples"):
            self._count("projectors.join_samples", result.samples)
        elif name == "projectors.export_projector":
            prefix = kwargs.get("path_prefix", args[1] if len(args) > 1 else None)
            folder, stem = os.path.split(os.path.abspath(prefix))
            size = sum(os.path.getsize(os.path.join(folder, f))
                       for f in os.listdir(folder) if f.startswith(stem + "."))
            self._count("projectors.artifact_mb", size / 1e6)
        elif name == "harness.run_experiment":
            self._count("harness.rows", len(result))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._open.pop()
            self._after(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every public layer function and the marginal methods; returns
        the span names."""
        import quclab
        from quclab.processes import ClassicalProcess
        from quclab.sources import QuantumSource
        modules = [importlib.import_module(f"quclab.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[obj] = (name, self.wrap(name, obj))
        for mod in [quclab] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj][1])
        QuantumSource.marginal = self.wrap("sources.marginal", QuantumSource.marginal)
        for cls in vars(modules[LAYERS.index("processes")]).values():
            if (isinstance(cls, type) and issubclass(cls, ClassicalProcess)
                    and "marginal" in cls.__dict__):
                cls.marginal = self.wrap("processes.marginal", cls.__dict__["marginal"])
        return sorted({name for name, _ in wrapped.values()}
                      | {"sources.marginal", "processes.marginal"})

    def dump(self, path: str, names: list[str]) -> None:
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": self.spans,
                       "counters": self.counters}, fh)


def summarize(span_files: list[str], steps: list[tuple[float, float]]) -> dict:
    """Per-name self time and calls, per-layer self time and the residue.

    Self time is a span's duration minus the time its child spans cover.
    The residue is the part of the steps no top-level span covers, so the
    layer self times plus the residue add up to the traced wall time.
    """
    names: set[str] = set()
    per_name: dict[str, list] = {}
    counters: dict[str, float] = {}
    covered = 0.0
    problems = []
    for path in span_files:
        with open(path) as fh:
            data = json.load(fh)
        names.update(data["names"])
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
        spans = data["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
                if not any(s - 1e-6 <= start and end <= e + 1e-6 for s, e in steps):
                    problems.append(f"top-level span {name} lies outside every step")
        for (name, start, end, _), inner in zip(spans, child):
            entry = per_name.setdefault(name, [0.0, 0])
            entry[0] += end - start - inner
            entry[1] += 1
            if end - start - inner < -1e-6:
                problems.append(f"span {name} has negative self time")
    wall = sum(end - start for start, end in steps)
    layers = {layer: sum(v[0] for k, v in per_name.items() if k.startswith(layer + "."))
              for layer in LAYERS}
    residue = wall - covered
    if residue < -1e-6:
        problems.append(f"spans cover {covered:.6f} s of {wall:.6f} s of steps")
    if abs(sum(layers.values()) + residue - wall) > 1e-6 * max(1.0, wall):
        problems.append("layer self times plus residue do not add up to wall_s")
    return {"names": names, "per_name": per_name, "counters": counters,
            "layers": layers, "residue": residue, "wall": wall, "problems": problems}


if __name__ == "__main__":
    from quclab import cli
    tracer = Tracer()
    traced_names = tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1], traced_names)
    sys.exit(code)
