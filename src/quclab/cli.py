"""Command line front end.

Source and channel specs are JSON, either inline or @path-to-file.
Exit codes: 0 success, 1 bad configuration/input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError, QuclabError, ValidationError
from .harness import (ExperimentConfig, _basis_row, build_channel, build_source,
                      report_csv, run_experiment)
from .info import mean_entropy
from .operators import validate_projector
from .projectors import assemble_q, export_projector, load_projector_matrix
from .sources import ChannelTransformedSource, lag_scan, transfer_observable


def _load_spec(text: str) -> dict:
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


def _cmd_entropy(args) -> int:
    source = build_source(_load_spec(args.source))
    n_list = [int(x) for x in args.n.split(",")]
    est = mean_entropy(source, n_list)
    for n, v in est.values:
        print(f"n={n}  S(rho_n)/n = {v:.10f} bits")
    print(f"extrapolated: {est.extrapolated:.10f} bits")
    if est.analytic is not None:
        print(f"analytic:     {est.analytic:.10f} bits")
    return 0


def _cmd_check_ergodic(args) -> int:
    source = build_source(_load_spec(args.source))
    if args.channel:
        source = ChannelTransformedSource(source,
                                          build_channel(_load_spec(args.channel)))
    # |0...0><0...0| on the m sites is |0><0| on each: its chi x chi matrix is
    # the m-th power of |0><0|'s, with no d^m x d^m array; lag_scan names a bad m
    zero = np.diag(np.eye(source.d)[0])
    A = np.linalg.matrix_power(transfer_observable(source, zero, 1), max(args.m, 0))
    rep = lag_scan(source, A, A, args.m, args.N)
    print(f"m={rep.m} N={rep.N}")
    print(f"cesaro average:   {rep.cesaro:.10f}")
    print(f"product target:   {rep.product:.10f}")
    print(f"gap:              {rep.gap:.3e}")
    print(f"weak-mixing avg:  {rep.weak_mixing_avg:.3e}")
    print(f"strong-mix tail:  {rep.strong_tail:.3e}")
    return 0


def _cmd_build_projector(args) -> int:
    q = assemble_q(args.l * args.n, args.d, None, k_order=args.k,
                   override=(args.l, args.n, args.R))
    export_projector(q, args.out)
    print(f"wrote {args.out}.real.csv / .imag.csv / .json  "
          f"(rank {q.join.rank}, trace-rate {q.trace_log_rate:.6f})")
    return 0


def _cmd_compress(args) -> int:
    p, meta = load_projector_matrix(args.projector)
    source = build_source(_load_spec(args.source))
    n = args.n if args.n is not None else meta.get("m")
    if n is None:
        raise ConfigError("projector sidecar missing; pass --n")
    rho = source.marginal(int(n))
    if p.shape != rho.shape:
        raise ValidationError("projector / state dimension mismatch")
    validate_projector(p)  # p is its own range basis (p p^dagger = p) for _basis_row
    accept, fe = _basis_row(p, rho.__matmul__, args.scheme, float(np.vdot(p, rho).real))
    if args.scheme == "c2" and accept <= 1e-12:
        raise ValidationError("state has (numerically) zero overlap with the projector")
    print(f"accept_prob = {accept:.10f}")
    if args.scheme == "c1":
        print(f"entanglement_fidelity = {fe:.10f}")
        out_trace = float(np.trace(rho).real)  # scheme 1 is trace preserving
    else:
        # F(rho, p rho p / tr(p rho))^2 = tr(p rho) for every projector p
        print(f"fidelity^2 = {fe:.10f}")
        out_trace = accept / accept  # tr(p rho p) / tr(p rho p): renormalised
    print(f"output_trace = {out_trace:.10f}")
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_dict(json.load(fh))
    rows = run_experiment(cfg)
    if cfg.output:
        print(f"wrote {cfg.output}.csv and {cfg.output}.json ({len(rows)} rows)")
    else:
        sys.stdout.write(report_csv(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quclab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="mean entropy of a source")
    p.add_argument("source")
    p.add_argument("--n", default="1,2,3,4,5,6", help="comma list of block sizes")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("check-ergodic", help="Cesaro factorization diagnostic")
    p.add_argument("source")
    p.add_argument("--channel", default=None)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=_cmd_check_ergodic)

    p = sub.add_parser("build-projector", help="assemble and export a projector")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: the projector is deterministic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_projector)

    p = sub.add_parser("compress", help="run one scheme on one marginal")
    p.add_argument("--scheme", choices=["c1", "c2"], required=True)
    p.add_argument("--projector", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("experiment", help="batch runs from a JSON config")
    exp_sub = p.add_subparsers(dest="subcommand", required=True)
    pr = exp_sub.add_parser("run")
    pr.add_argument("config")
    pr.set_defaults(func=_cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuclabError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
