"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED ROUND_DIR TRACE

Set-up (interpreter start, `import quclab`, parsing the configs or writing
the CLI specs) ends when the first step starts.  Each step is timed here,
outside the program.  The last line of standard output is one JSON object
with the step times and the program's raw outputs; run.py checks them, so
this process's peak memory is the program's own.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from quclab import harness

import spans
import workloads

HERE = Path(__file__).resolve().parent


def experiment_steps(data: dict):
    configs = [(step["name"], harness.ExperimentConfig.from_dict(step["config"]))
               for step in data["steps"]]

    def run(cfg):
        # looked up at call time, so a traced run sees the wrapped function
        return {"rows": [asdict(row) for row in harness.run_experiment(cfg)]}
    return [(name, run, cfg) for name, cfg in configs]


def cli_steps(data: dict, out: Path, traced: bool):
    spec_paths = []
    for i, spec in enumerate(data["sources"]):
        path = out / f"source{i}.json"
        path.write_text(json.dumps(spec))
        spec_paths.append(path)
    prefix = str(out / "q")
    commands = [("build-projector",
                 ["build-projector", "--d", "2", "--l", "1", "--n", str(data["n"]),
                  "--R", str(data["r"]), "--seed", str(data["seed"]), "--out", prefix])]
    commands += [(f"compress-c2-source{i}",
                  ["compress", "--scheme", "c2", "--projector", prefix, "--source", f"@{path}"])
                 for i, path in enumerate(spec_paths)]

    def run(args, name):
        if traced:
            cmd = [sys.executable, str(HERE / "spans.py"), str(out / f"{name}.spans.json"), *args]
        else:
            cmd = [sys.executable, "-m", "quclab.cli", *args]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        return {"returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr[-2000:]}
    return [(name, lambda args, name=name: run(args, name), args) for name, args in commands]


def main() -> int:
    workload, seed, out, traced = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1"
    tracer = None
    if traced:
        tracer = spans.Tracer()
        names = tracer.install()
    data = workloads.inputs(workload, seed)
    steps = cli_steps(data["cli"], out, traced) if "cli" in data else experiment_steps(data)
    results = []
    first_step = time.monotonic()
    for name, run, arg in steps:
        start = time.monotonic()
        try:
            output = run(arg)
        except Exception as exc:  # a raw program error fails this step's operations
            output = {"exception": f"{type(exc).__name__}: {exc}"}
        results.append({"name": name, "start": start, "end": time.monotonic(), **output})
    span_files = []
    if tracer is not None:
        path = out / "worker.spans.json"
        tracer.dump(str(path), names)
        span_files = [str(path)] + sorted(str(p) for p in out.glob("*.spans.json")
                                          if p != path)
    print(json.dumps({"first_step": first_step, "steps": results, "span_files": span_files}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
