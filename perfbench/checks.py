"""Checks of every operation's output against the reference computations.

An operation is one report row or one CLI command.  It fails when it ends
with an error or when a check below does not hold:

* diagonal rows: accept_prob equals the reference code measure and
  F_e = accept_prob^2;
* non-diagonal rows: accept_prob equals tr(Q^dagger rho Q), with Q the
  collective closure of the code and rho the reference density matrix, and
  F_e lies in the c1 interval [tr(P rho)^2, tr(P rho)^2 + tr(P rho (1-P) rho)];
* achieved_rate: 2^(n rate) equals the closure rank in orbit mode and the
  code size in code mode;
* CLI: the exported projector equals Q Q^dagger, compress c2 prints
  tr(P rho), the plain-eigh squared fidelity and an output trace of 1.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracles

TOL = 1e-9
GRID_TOL = 1e-8
# The squared fidelity sums square roots of eigenvalues that are zero up to
# rounding, which leaves ~1e-8 of error in the program and the reference alike.
FIDELITY_TOL = 1e-6


def _diagonal_process(spec: dict):
    """The driving process of a source diagonal in the computational basis."""
    if spec["kind"] == "iid" and "probs" in spec:
        return {"kind": "iid", "probs": spec["probs"]}
    if spec["kind"] == "classical" and spec.get("alphabet", "computational") == "computational":
        return spec["process"]
    return None


def _close(a, b, tol=TOL) -> bool:
    return a is not None and abs(a - b) <= tol


class Checker:
    def __init__(self, data: dict):
        self.data = data
        self._cache: dict = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def closure(self, n: int, r: float, k: int) -> np.ndarray:
        return self._cached(("closure", n, r, k), lambda: oracles.collective_closure(
            oracles.code_members(2, n, r, k), n))

    def density(self, spec: dict, n: int) -> np.ndarray:
        return self._cached(("rho", spec["id"], n), lambda: oracles.density(spec, n))

    def ops_per_round(self) -> int:
        if "cli" in self.data:
            return 1 + len(self.data["cli"]["sources"])
        return sum(len(step["config"]["sources"]) for step in self.data["steps"])

    def check_round(self, steps: list, round_dir: Path) -> list[str]:
        """One message per failed operation of the round."""
        if "cli" in self.data:
            return self._check_cli(steps, round_dir)
        failures = []
        for step, result in zip(self.data["steps"], steps):
            cfg = step["config"]
            sources = cfg["sources"]
            rows = result.get("rows", [])
            if "exception" in result or len(rows) != len(sources):
                why = result.get("exception", f"{len(rows)} rows for {len(sources)} sources")
                failures += [f"{step['name']} {spec['id']}: {why}" for spec in sources]
                continue
            for spec, row in zip(sources, rows):
                why = self._check_row(cfg, spec, row)
                if why:
                    failures.append(f"{step['name']} {spec['id']}: {why}")
        return failures

    def _check_row(self, cfg: dict, spec: dict, row: dict) -> str | None:
        if row["error"]:
            return row["error"]
        n, r, k = row["n"], cfg["r"], cfg.get("k_order", 0)
        accept, fe, rate = row["accept_prob"], row["entanglement_fidelity"], row["achieved_rate"]
        process = _diagonal_process(spec)
        if process is not None:
            expected = self._cached(("measure", spec["id"], n, r, k),
                                    lambda: oracles.code_measure(process, n, r, k))
            if not _close(accept, expected):
                return f"accept_prob {accept!r}, reference code measure {expected!r}"
            if not _close(fe, accept ** 2):
                return f"entanglement_fidelity {fe!r} != accept_prob^2 {accept ** 2!r}"
        else:
            q = self.closure(n, r, k)
            rho = self.density(spec, n)
            expected = self._cached(("accept", spec["id"], n, r, k),
                                    lambda: oracles.acceptance(q, rho))
            if not _close(accept, expected):
                return f"accept_prob {accept!r}, reference tr(Q^+ rho Q) {expected!r}"
            lo, hi = self._cached(("c1", spec["id"], n, r, k),
                                  lambda: oracles.c1_fidelity_bounds(q, rho))
            if fe is None or not lo - TOL <= fe <= hi + TOL:
                return f"entanglement_fidelity {fe!r} outside c1 interval [{lo!r}, {hi!r}]"
        if cfg.get("projector_mode", "orbit") == "orbit":
            size = self.closure(n, r, k).shape[1]
        else:
            size = oracles.code_size(n, r)
        if rate is None or abs(2 ** (n * rate) - size) > 1e-6 * size:
            return f"achieved_rate {rate!r}, expected log2({size})/{n}"
        return None

    def _check_cli(self, steps: list, round_dir: Path) -> list[str]:
        data = self.data["cli"]
        n, r = data["n"], data["r"]
        q = self.closure(n, r, 0)
        failures = []
        build, compresses = steps[0], steps[1:]
        why = _command_error(build) or self._check_export(round_dir / "q", q, n)
        if why:
            failures.append(f"build-projector: {why}")
        for spec, result in zip(data["sources"], compresses):
            why = _command_error(result) or self._check_c2(result["stdout"], spec, q, n)
            if why:
                failures.append(f"compress {spec['id']}: {why}")
        return failures

    def _check_export(self, prefix: Path, q: np.ndarray, n: int) -> str | None:
        try:
            meta = json.loads(prefix.with_suffix(".json").read_text())
            grid = (np.loadtxt(f"{prefix}.real.csv", delimiter=",")
                    + 1j * np.loadtxt(f"{prefix}.imag.csv", delimiter=","))
        except (OSError, ValueError) as exc:
            return f"cannot read the exported projector: {exc}"
        if meta.get("rank") != q.shape[1] or meta.get("m") != n:
            return f"sidecar rank {meta.get('rank')} m {meta.get('m')}, expected {q.shape[1]} {n}"
        dev = float(np.abs(grid - q @ q.T).max())
        if dev > GRID_TOL:
            return f"exported projector deviates from Q Q^+ by {dev:.3e}"
        return None

    def _check_c2(self, stdout: str, spec: dict, q: np.ndarray, n: int) -> str | None:
        values = {}
        for line in stdout.splitlines():
            key, sep, value = line.partition(" = ")
            if sep:
                values[key.strip()] = float(value)
        rho = self.density(spec, n)
        accept = self._cached(("accept", spec["id"], n), lambda: oracles.acceptance(q, rho))
        fid2 = self._cached(("c2", spec["id"], n),
                            lambda: oracles.c2_fidelity_squared(q @ q.T, rho))
        if not _close(values.get("accept_prob"), accept, 2 * TOL):
            return f"accept_prob {values.get('accept_prob')!r}, reference {accept!r}"
        if not _close(values.get("fidelity^2"), fid2, FIDELITY_TOL):
            return f"fidelity^2 {values.get('fidelity^2')!r}, reference {fid2!r}"
        if not _close(values.get("output_trace"), 1.0, 2 * TOL):
            return f"output_trace {values.get('output_trace')!r}, expected 1"
        return None


def _command_error(result: dict) -> str | None:
    if "exception" in result:
        return result["exception"]
    if result["returncode"] != 0:
        return f"exit code {result['returncode']}: {result['stderr'].strip()[-300:]}"
    return None
