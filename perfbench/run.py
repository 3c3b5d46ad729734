"""quclab benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload orbit-diag --seed 1 --seconds 20 --trace 0

Run from the root of a quclab checkout.  A run repeats whole rounds until
`--seconds` have passed (at least MIN_ROUNDS).  Each round is a fresh worker
process (perfbench/worker.py) with single-threaded BLAS; the end-to-end
metrics are the medians over the rounds of that round's

* wall_s: the summed time of its steps (experiment rows or CLI commands);
* max_step_s: its slowest step (all rows at one n, or one CLI command);
* setup_s: process spawn to the start of the first step;
* peak_rss_mb: the worker's peak resident memory, CLI children included.

With `--trace 1`, rounds alternate traced and untraced; the per-layer metrics
are medians over the traced rounds, and trace.overhead_s is the median traced
wall_s minus the median untraced wall_s.  Every operation is checked against
perfbench/oracles.py.  The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import spans       # noqa: E402
import workloads   # noqa: E402

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# A run must end within 180 s whatever --seconds says: rounds start only
# within MAX_MEASURE_S, and a worker still running at RUN_LIMIT_S is killed.
MAX_MEASURE_S = 120
RUN_LIMIT_S = 170

END_TO_END = {"wall_s": "s", "max_step_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# (metric, span name, field): self time or call count of one wrapped function
SPAN_METRICS = [
    ("projectors.orbit_join_basis.self_s", "projectors.orbit_join_basis", 0),
    ("projectors.orbit_join_basis.calls", "projectors.orbit_join_basis", 1),
    ("operators.span_basis.self_s", "operators.span_basis", 0),
    ("operators.hermitian_eig.self_s", "operators.hermitian_eig", 0),
    ("operators.hermitian_eig.calls", "operators.hermitian_eig", 1),
    ("harness.compress_c1.self_s", "harness.compress_c1", 0),
    ("harness.run_experiment.self_s", "harness.run_experiment", 0),
    ("sources.marginal.self_s", "sources.marginal", 0),
    ("sources.marginal.calls", "sources.marginal", 1),
    ("channels.apply_tensor_power.self_s", "channels.apply_tensor_power", 0),
    ("channels.apply_tensor_power.calls", "channels.apply_tensor_power", 1),
    ("processes.marginal.self_s", "processes.marginal", 0),
    ("processes.marginal.calls", "processes.marginal", 1),
    ("codes.build_code.self_s", "codes.build_code", 0),
    ("codes.build_code.calls", "codes.build_code", 1),
    ("codes.empirical_entropy_scores.self_s", "codes.empirical_entropy_scores", 0),
    ("codes.code_measure.self_s", "codes.code_measure", 0),
    ("harness.projector_builds", "projectors.assemble_q", 1),
    ("projectors.export_projector.self_s", "projectors.export_projector", 0),
    ("projectors.load_projector_matrix.self_s", "projectors.load_projector_matrix", 0),
    ("harness.compress_c2.self_s", "harness.compress_c2", 0),
    ("info.fidelity.self_s", "info.fidelity", 0),
    ("cli.main.self_s", "cli.main", 0),
]
# (metric, counter kept by the tracer, the span name whose presence it needs)
COUNTER_METRICS = [
    ("projectors.join_samples", "projectors.join_samples", "projectors.orbit_join_basis"),
    ("harness.rows", "harness.rows", "harness.run_experiment"),
    ("projectors.artifact_mb", "projectors.artifact_mb", "projectors.export_projector"),
]


def per_layer_units() -> dict:
    units = {name: ("count" if name.endswith(".calls") else "s")
             for name, _, _ in SPAN_METRICS}
    units.update({"projectors.join_samples": "count", "harness.projector_builds": "count",
                  "harness.rows": "count", "projectors.artifact_mb": "MB"})
    units.update({f"{layer}.self_s": "s" for layer in spans.LAYERS})
    units.update({"trace.residue_s": "s", "trace.overhead_s": "s"})
    return units


def run_round(workload: str, seed: int, round_dir: Path, traced: bool, env: dict,
              deadline: float) -> dict:
    """Spawn one worker and time it; returns its parsed output plus set-up
    time and peak memory, or raises RuntimeError."""
    round_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(round_dir),
           "1" if traced else "0"]
    with open(round_dir / "worker.stderr", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                start_new_session=True)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            out = proc.stdout.read().decode()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
    if proc.returncode != 0 or not out.strip():
        tail = (round_dir / "worker.stderr").read_text()[-1500:]
        raise RuntimeError(f"worker exited with {proc.returncode}: {tail}")
    result = json.loads(out.strip().splitlines()[-1])
    steps = [s["end"] - s["start"] for s in result["steps"]]
    result.update(setup=result["first_step"] - spawned, wall=sum(steps),
                  max_step=max(steps), rss_mb=usage.ru_maxrss / 1024.0, traced=traced)
    return result


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values of one traced round (None: name not traced)."""
    names, per_name, counters = summary["names"], summary["per_name"], summary["counters"]
    values = {}
    for metric, span, field in SPAN_METRICS:
        values[metric] = per_name.get(span, [0.0, 0])[field] if span in names else None
    for metric, counter, span in COUNTER_METRICS:
        values[metric] = counters.get(counter, 0) if span in names else None
    values.update({f"{layer}.self_s": t for layer, t in summary["layers"].items()})
    values["trace.residue_s"] = summary["residue"]
    return values


def median_or_none(values: list):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "quclab" / "__init__.py").is_file():
        print("error: src/quclab not found; run from the root of a quclab checkout",
              file=sys.stderr)
        return 2
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
    # compiles quclab's bytecode and warms the file cache before any timing
    subprocess.run([sys.executable, "-c", "import quclab.cli"], env=env, check=True)

    import test_oracles
    problems = test_oracles.run_all()
    data = workloads.inputs(args.workload, args.seed)
    checker = checks.Checker(data)
    rounds, failures = [], []
    attempted = 0
    measure_s = min(args.seconds, MAX_MEASURE_S)
    while (len(rounds) < (2 * MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS)
           or time.monotonic() - started < measure_s):
        traced = bool(args.trace) and len(rounds) % 2 == 0
        round_dir = out / f"round{len(rounds)}"
        try:
            result = run_round(args.workload, args.seed, round_dir, traced, env, deadline)
        except RuntimeError as exc:
            problems.append(str(exc))
            break
        attempted += checker.ops_per_round()
        failures += checker.check_round(result["steps"], round_dir)
        if traced:
            summary = spans.summarize(result["span_files"],
                                      [(s["start"], s["end"]) for s in result["steps"]])
            problems += summary["problems"]
            result["layer"] = layer_metrics(summary)
        for grid in round_dir.glob("*.csv"):
            grid.unlink()
        rounds.append(result)

    for message, count in Counter(failures).items():
        print(f"FAILED ({count} of {len(rounds)} rounds) {message}")
    for message in problems:
        print(f"PROBLEM {message}")
    if not rounds:
        return 1
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        units = per_layer_units()
        values = {name: median_or_none([r["layer"][name] for r in traced_rounds])
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced_rounds)
                                      - statistics.median(r["wall"] for r in plain)
                                      if traced_rounds and plain else None)
    else:
        units = END_TO_END
        values = {"wall_s": median_or_none([r["wall"] for r in plain]),
                  "max_step_s": median_or_none([r["max_step"] for r in plain]),
                  "setup_s": median_or_none([r["setup"] for r in plain]),
                  "peak_rss_mb": median_or_none([r["rss_mb"] for r in plain])}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    print(f"{args.workload} rounds = {len(rounds)}, operations attempted = {attempted}, "
          f"failed = {len(failures)}")
    with open(out / "rounds.json", "w") as fh:
        json.dump(rounds, fh)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
