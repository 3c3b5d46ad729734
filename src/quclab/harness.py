"""The two block compression schemes, experiment orchestration and reporting.

Scheme 1 measures against the projector and dumps the rejected weight onto a
flag vector (trace preserving, Kraus form).  Scheme 2 projects and
renormalizes (state-dependent postselection, not linear).  Experiment rows
report through `_diag_row` (diagonal sources: the code's measure) or
`_orbit_row` (the join basis B and rho B); `quclab compress` reads B from
disk and reports through `_orbit_row` too.  `compress_c1` and `compress_c2`
are the dense scheme maps, kept as library and test references.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .channels import (KrausChannel, amplitude_damping, dephasing,
                       depolarizing, identity_channel)
from .codes import BlockCode, build_code, code_measure
from .errors import MEMORY_BUDGET, ConfigError, QuclabError, ValidationError
from .operators import range_flag
from .processes import (ClassicalProcess, IIDProcess, MarkovProcess,
                        MixtureProcess, PeriodicProcess)
from .projectors import JOIN_RTOL, UniversalProjector, assemble_q, trace_q_rho
from .sources import (ChannelTransformedSource, ClassicallyCorrelatedSource,
                      IIDSource, QuantumAlphabet, QuantumSource)

CSV_HEADER = ["source", "n", "r", "accept_prob", "entanglement_fidelity",
              "achieved_rate", "wall_ms", "error"]


def _c1_fidelity(accept: float, rho_f: np.ndarray, f: np.ndarray, project) -> float:
    """Scheme 1's entanglement fidelity tr(q rho)^2 + ||(1 - q) rho f||^2 for a
    flag f in range(q), given rho f, where `project` applies q.  The second
    term is sum_i |<i|rho|f>|^2 over an orthonormal basis of the orthocomplement."""
    if np.linalg.norm(project(f) - f) > 1e-8:
        raise ConfigError("flag vector lies outside the projector range")
    return float(accept ** 2 + np.linalg.norm(rho_f - project(rho_f)) ** 2)


def compress_c1(p: np.ndarray, rho: np.ndarray, flag_vector: np.ndarray | None = None):
    """Measure-and-flag scheme.  Returns (output state, entanglement fidelity).

    Kraus set: the projector itself plus |flag><i| over an orthonormal basis
    of the orthocomplement; F_e comes from the intrinsic formula.
    """
    p = np.asarray(p, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if p.shape != rho.shape:
        raise ValidationError("projector / state dimension mismatch")
    if flag_vector is None:
        flag_vector = range_flag(p)
    f = np.asarray(flag_vector, dtype=complex)
    fe = _c1_fidelity(abs(np.trace(p @ rho)), rho @ f, f, lambda v: p @ v)
    rejected = float(np.trace(rho - p @ rho @ p).real)
    out = p @ rho @ p + rejected * np.outer(f, f.conj())
    return out, fe


def compress_c2(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Project-and-renormalize scheme (state-dependent postselection)."""
    p = np.asarray(p, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if p.shape != rho.shape:
        raise ValidationError("projector / state dimension mismatch")
    proj = p @ rho @ p
    tr = float(np.trace(proj).real)
    if tr <= 1e-12:
        raise ValidationError("state has (numerically) zero overlap with the projector")
    return proj / tr


_REQUIRED = object()


def _field(spec: dict, key: str, convert=lambda v: np.asarray(v, dtype=float),
           default=_REQUIRED):
    """spec[key] through `convert`; a missing or malformed field is a
    ConfigError that names it."""
    if key not in spec:
        if default is _REQUIRED:
            raise ConfigError(f"spec field {key!r} is missing")
        return default
    try:
        return convert(spec[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"spec field {key!r} is malformed: {exc}") from None


def _complex(spec: dict, re_key: str, im_key: str) -> np.ndarray:
    return _field(spec, re_key) + 1j * _field(spec, im_key, default=0.0)


def _integer(v):
    """A `_field` converter: v itself if it is an integer, else ValueError;
    a float or a bool is not truncated to one."""
    if not _is_int(v):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _number(v) -> float:
    """A `_field` converter: v as a float if it is a finite number, else
    ValueError; strings and bools are not numbers."""
    if not _is_int(v, kind=(int, float)):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def build_process(spec: dict) -> ClassicalProcess:
    kind = spec.get("kind")
    if kind == "iid":
        return IIDProcess(_field(spec, "probs"))
    if kind == "markov":
        return MarkovProcess(_field(spec, "transition"),
                             initial=_field(spec, "initial", default=None))
    if kind == "periodic":
        return PeriodicProcess(_field(spec, "cycle", lambda v: [_integer(c) for c in v]),
                               L=_field(spec, "alphabet_size", _integer, None))
    if kind == "mixture":
        components = _field(spec, "components", lambda v: [build_process(dict(c)) for c in v])
        return MixtureProcess(_field(spec, "weights"), components)
    raise ConfigError(f"unknown process kind {kind!r}")


def build_channel(spec: dict) -> KrausChannel:
    """Presets by name plus a custom matrix-list escape hatch; a missing or
    malformed field is a ConfigError naming it."""
    if not isinstance(spec, dict):
        raise ConfigError(f"channel spec must be a JSON object, got {spec!r}")
    name = spec.get("name")
    if name == "identity":
        return identity_channel(_field(spec, "d", _integer, 2))
    if name == "depolarizing":
        return depolarizing(_field(spec, "p", _number))
    if name == "dephasing":
        return dephasing(_field(spec, "p", _number))
    if name == "amplitude-damping":
        return amplitude_damping(_field(spec, "gamma", _number))
    if name == "custom":
        return KrausChannel(_field(spec, "kraus", lambda v: [
            np.array(m_re) + 1j * np.array(m_im) for m_re, m_im in v]))
    raise ValidationError(f"unknown channel preset {name!r}")


def build_source(spec: dict) -> QuantumSource:
    if not isinstance(spec, dict):
        raise ConfigError(f"source spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "iid":
        if "probs" in spec:
            return IIDSource(np.diag(_field(spec, "probs")))
        return IIDSource(_complex(spec, "rho_re", "rho_im"))
    if kind == "classical":
        process = build_process(_field(spec, "process", dict))
        alph = spec.get("alphabet", "computational")
        if alph == "computational":
            return ClassicallyCorrelatedSource(process, QuantumAlphabet.computational(process.L))
        return ClassicallyCorrelatedSource(process, QuantumAlphabet(
            _complex(_field(spec, "alphabet", dict), "re", "im")))
    if kind == "channel-transformed":
        inner = build_source(_field(spec, "inner", dict))
        return ChannelTransformedSource(inner, build_channel(_field(spec, "channel", dict)))
    raise ConfigError(f"unknown source kind {kind!r}")


@dataclass
class ExperimentConfig:
    sources: list
    r: float
    n_range: list
    scheme: str = "c1"
    seed: int = 0                   # accepted and recorded; nothing depends on it
    output: str | None = None
    override_schedule: dict = field(default_factory=dict)
    projector_mode: str = "orbit"   # "orbit" builds the join; "code" skips it
    k_order: int = 0

    ALLOWED = {"sources", "r", "n_range", "scheme", "seed", "output",
               "override_schedule", "projector_mode", "k_order"}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
        unknown = set(raw) - cls.ALLOWED
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key in ("sources", "r", "n_range"):
            if key not in raw:
                raise ConfigError(f"missing config field {key!r}")
        cfg = cls(**raw)
        for key, ok, what in (
                ("sources", isinstance(cfg.sources, list), "a list"),
                ("r", _is_int(cfg.r, kind=(int, float)), "a finite number"),
                ("n_range", isinstance(cfg.n_range, list)
                 and all(_is_int(n, 1) for n in cfg.n_range), "a list of integers >= 1"),
                ("k_order", _is_int(cfg.k_order, 0), "an integer >= 0"),
                ("seed", _is_int(cfg.seed), "an integer"),
                ("output", cfg.output is None or isinstance(cfg.output, str), "a string or null"),
                ("scheme", cfg.scheme in ("c1", "c2"), "c1 or c2"),
                ("projector_mode", cfg.projector_mode in ("orbit", "code"), "orbit or code")):
            if not ok:
                raise ConfigError(f"{key} must be {what}, got {getattr(cfg, key)!r}")
        cfg.r = float(cfg.r)
        _check_override(cfg.override_schedule)
        return cfg


def _is_int(v, lowest: float = -math.inf, kind=int) -> bool:
    """v is of `kind` (int by default; a JSON bool is neither an integer nor
    a number here), at least `lowest` and finite as a float."""
    return (not isinstance(v, bool) and isinstance(v, kind)
            and lowest <= v <= sys.float_info.max)


def _check_override(sched) -> None:
    """override_schedule is {"l": integer >= 1, "R": finite number}, both
    optional; anything else would fail inside every row."""
    if not isinstance(sched, dict):
        raise ConfigError(f"override_schedule must be an object, got {sched!r}")
    unknown = set(sched) - {"l", "R"}
    if unknown:
        raise ConfigError(f"unknown override_schedule fields: {sorted(unknown)}")
    l = sched.get("l", 1)
    if not _is_int(l, 1):
        raise ConfigError(f"override_schedule l must be an integer >= 1, got {l!r}")
    R = sched.get("R", 0.0)
    if not _is_int(R, kind=(int, float)):
        raise ConfigError(f"override_schedule R must be a finite number, got {R!r}")


@dataclass
class ReportRow:
    source: str
    n: int
    r: float
    accept_prob: float | None = None
    entanglement_fidelity: float | None = None
    achieved_rate: float | None = None
    wall_ms: float = 0.0
    error: str = ""
    # in the JSON mirror only, not in the CSV: the path that computed the row
    # ("diagonal" or "code" for a diagonal source, else trace_q_rho's
    # "invariant" or "dense") and the orbit-mode join evidence
    path: str | None = None
    join_rank: int | None = None
    invariance_residual: float | None = None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _diag_row(source: QuantumSource, code: BlockCode, l: int,
              scheme: str) -> tuple[float, float]:
    """Diagonal fast path: exact classical code-measure acceptance and the
    matching scheme fidelity.  Scheme 1's F_e is accept^2 (off-diagonal terms
    vanish); scheme 2's F(rho, P rho P / tr(P rho))^2 equals tr(P rho) =
    accept for every projector P.  Padded trailing sites are accepted
    unconditionally, so they drop out."""
    accept = code_measure(source.classical_view().block(l), code)
    return accept, (accept ** 2 if scheme == "c1" else accept)


def _orbit_row(b: np.ndarray, d: int, sites: int, pad: int, source: QuantumSource,
               scheme: str) -> tuple[float, float, str]:
    """Non-diagonal path for q = b b^dagger (x) 1, the join basis b on the
    first `sites` sites and `pad` padded sites last: accept = tr(q rho) and
    its path from trace_q_rho; scheme 1's F_e with the flag compress_c1
    picks, range_flag(b) (x) e_0, which needs rho times that one column,
    with q v = b (b^dagger X) for X = v as a len(b) x d^pad matrix; scheme
    2's F_e equals accept, as in _diag_row.  Orbit rows of non-diagonal
    sources and `quclab compress` both report through it."""
    accept, path = trace_q_rho(b, d, sites, source)
    if scheme == "c2":
        return accept, accept, path
    f = np.outer(range_flag(b), np.eye(d ** pad)[0]).ravel()
    return accept, _c1_fidelity(accept, source.apply(sites + pad, f), f, lambda v: (
        b @ (b.conj().T @ v.reshape(len(b), d ** pad))).reshape(v.shape)), path


def run_experiment(cfg: ExperimentConfig) -> list[ReportRow]:
    rows: list[ReportRow] = []
    # keyed on everything that determines the value; codes serve code mode,
    # orbit mode reuses the code its projector carries
    projectors: dict[tuple, UniversalProjector] = {}
    codes: dict[tuple, BlockCode] = {}
    wall_times: list[float] = []
    for s_idx, spec in enumerate(cfg.sources):
        sid = spec.get("id", f"source{s_idx}") if isinstance(spec, dict) else f"source{s_idx}"
        # one source alive at a time; a spec that fails to build fails each
        # of its rows with the same error
        try:
            source, build_error = build_source(spec), None
        except QuclabError as exc:
            source, build_error = None, exc
        for n in cfg.n_range:
            t0 = time.perf_counter()
            row = ReportRow(source=sid, n=n, r=cfg.r)
            try:
                if build_error is not None:
                    raise build_error
                d = source.d
                l = cfg.override_schedule.get("l", 1)
                R = float(cfg.override_schedule.get("R", l * cfg.r))
                n_blocks = n // l
                pad = n - l * n_blocks
                diagonal = source.classical_view() is not None
                if cfg.projector_mode == "orbit":
                    key = (n, d, l, n_blocks, R, cfg.k_order)
                    if key not in projectors:
                        projectors[key] = assemble_q(n, d, cfg.r, k_order=cfg.k_order,
                                                     override=(l, n_blocks, R))
                    up = projectors[key]
                    row.achieved_rate = up.trace_log_rate
                    row.join_rank = up.join.rank
                    row.invariance_residual = up.join.invariance_residual
                    if diagonal:
                        row.path = "diagonal"
                        row.accept_prob, row.entanglement_fidelity = _diag_row(
                            source, up.code, l, cfg.scheme)
                    else:
                        row.accept_prob, row.entanglement_fidelity, row.path = _orbit_row(
                            up.join.basis, d, l * n_blocks, pad, source, cfg.scheme)
                else:
                    if not diagonal:
                        raise ConfigError("projector_mode=code needs a diagonal source")
                    row.path = "code"
                    key = (d ** l, R, n_blocks, cfg.k_order)
                    if key not in codes:
                        codes[key] = build_code(*key)
                    code = codes[key]
                    row.accept_prob, row.entanglement_fidelity = _diag_row(
                        source, code, l, cfg.scheme)
                    row.achieved_rate = (np.log2(float(code.size)) + pad * np.log2(d)) / n
            except QuclabError as exc:
                row.error = f"{type(exc).__name__}: {exc}"
            except MemoryError as exc:  # an allocation no budget check foresaw
                row.error = f"SizeError: {exc}"
            wall = (time.perf_counter() - t0) * 1000.0
            wall_times.append(wall)
            # wall_ms stays 0 in the row so reports are byte-reproducible;
            # measured times go to the JSON mirror only
            rows.append(row)
    if cfg.output:
        write_report(cfg, rows, wall_times)
    return rows


def report_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow([r.source, r.n, _fmt(r.r), _fmt(r.accept_prob),
                    _fmt(r.entanglement_fidelity), _fmt(r.achieved_rate),
                    _fmt(r.wall_ms), r.error])
    return buf.getvalue()


def write_report(cfg: ExperimentConfig, rows: list[ReportRow],
                 wall_times: list[float] | None = None) -> None:
    with open(cfg.output + ".csv", "w") as fh:
        fh.write(report_csv(rows))
    mirror = {
        "config": {"sources": cfg.sources, "r": cfg.r, "n_range": cfg.n_range,
                   "scheme": cfg.scheme, "seed": cfg.seed,
                   "override_schedule": cfg.override_schedule,
                   "projector_mode": cfg.projector_mode, "k_order": cfg.k_order},
        "rows": [asdict(r) for r in rows],
        "wall_ms_measured": wall_times or [],
        "tolerances": {"join_rank_rtol": JOIN_RTOL, "memory_budget_bytes": MEMORY_BUDGET},
    }
    with open(cfg.output + ".json", "w") as fh:
        json.dump(mirror, fh, indent=2, sort_keys=True)
