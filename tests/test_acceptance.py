"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run with -s to see the lines; under plain -v the per-test PASSED/FAILED
verdicts carry the same information.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from quclab.channels import depolarizing
from quclab.codes import build_code, code_measure, code_size
from quclab.harness import ExperimentConfig, run_experiment
from quclab.info import entanglement_fidelity, von_neumann_entropy
from quclab.operators import validate_density
from quclab.processes import IIDProcess, MarkovProcess, entropy_bits
from quclab.projectors import (assemble_q, acceptance_probability, orbit_join_basis,
                               rate_upper_bound, schedule)
from quclab.sources import (ClassicallyCorrelatedSource, IIDSource,
                            QuantumAlphabet, conditional_expectation,
                            verify_invariance)
from randmat import haar_unitary, random_density, random_hermitian, random_projector
from reference import (projector_leq, purified_entanglement_fidelity, random_channel,
                       validate_projector)

MARKOV_P = [[0.9, 0.1], [0.2, 0.8]]
R_TARGET = 0.7
N_RANGE = [4, 6, 8, 10, 12]


def _verdict(num, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def test_criterion_01_validators():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(80):
        d = int(rng.integers(2, 9))
        rep = validate_density(random_density(d, rng))
        ok &= rep["min_eigenvalue"] >= -1e-10 and abs(rep["trace"] - 1) <= 1e-10
    for _ in range(60):
        d = int(rng.integers(2, 9))
        rep = validate_projector(random_projector(d, int(rng.integers(1, d + 1)), rng))
        ok &= rep["idempotency"] <= 1e-8 and rep["hermiticity"] <= 1e-10
    for _ in range(60):
        c = random_channel(int(rng.integers(2, 4)), int(rng.integers(1, 4)), rng)
        from quclab.channels import validate_channel
        rep = validate_channel(c.kraus)
        ok &= rep["completeness_deviation"] <= 1e-10
        ok &= rep["min_choi_eigenvalue"] >= -1e-10
    ok &= (time.perf_counter() - t0) < 10.0
    _verdict(1, ok)


def test_criterion_02_conditional_expectation():
    rng = np.random.default_rng(102)
    dev = 0.0
    for _ in range(100):
        basis = haar_unitary(4, rng)
        a = random_hermitian(4, rng)
        in_alg = (basis * rng.standard_normal(4)) @ basis.conj().T
        ea = conditional_expectation(a, basis)
        # (a) positivity and unitality
        psd = a @ a  # a^2 is PSD
        dev = max(dev, max(0.0, -float(np.linalg.eigvalsh(
            conditional_expectation(psd, basis))[0])))
        dev = max(dev, float(np.max(np.abs(
            conditional_expectation(np.eye(4), basis) - np.eye(4)))))
        # (b) fixes the abelian algebra
        dev = max(dev, float(np.max(np.abs(
            conditional_expectation(in_alg, basis) - in_alg))))
        # (c) module property over the algebra
        dev = max(dev, float(np.max(np.abs(
            conditional_expectation(in_alg @ a, basis) - in_alg @ ea))))
        # (d) trace compatibility against the algebra
        dev = max(dev, float(abs(np.trace(ea @ in_alg) - np.trace(a @ in_alg))))
    _verdict(2, dev <= 1e-12)


def test_criterion_03_state_measure_bridge():
    rng = np.random.default_rng(103)
    mk = MarkovProcess(MARKOV_P)
    src = ClassicallyCorrelatedSource(mk, QuantumAlphabet.computational(2))
    ok = True
    for n in (1, 2, 3, 4, 5, 6):  # dims 2..64
        mu = mk.marginal(n).probs
        rho = src.marginal(n)
        # state value of random diagonal projectors = measure of the set
        for _ in range(5):
            mask = rng.integers(0, 2, 2 ** n).astype(float)
            p = np.diag(mask)
            ok &= abs(np.trace(rho @ p).real - mu[mask > 0].sum()) <= 1e-12
        ok &= abs(von_neumann_entropy(rho) - entropy_bits(mu)) <= 1e-10
    _verdict(3, ok)


def test_criterion_04_entanglement_fidelity_dual_path():
    rng = np.random.default_rng(104)
    dev = 0.0
    for _ in range(100):
        d = int(rng.choice([2, 4]))
        rho = random_density(d, rng)
        c = random_channel(d, int(rng.integers(1, 4)), rng)
        fi = entanglement_fidelity(rho, c.kraus)
        fp = purified_entanglement_fidelity(rho, c.kraus)
        dev = max(dev, abs(fi - fp))
    _verdict(4, dev <= 1e-9)


def test_criterion_05_channel_invariance():
    src = ClassicallyCorrelatedSource(MarkovProcess(MARKOV_P),
                                      QuantumAlphabet.computational(2))
    rep = verify_invariance(src, depolarizing(0.25), m_max=8, N=2000)
    ok = rep["consistency"] <= 1e-10
    ok &= rep["stationarity"] <= 1e-10
    ok &= rep["duality"] <= 1e-10
    # closed-form autocovariance oracle after the depolarizing dual reduction:
    # dual of |0><0| is c + b*1{x=0} with c = p/4... evaluated from the Kraus set
    p = 0.25
    c0, b = p / 2, 1 - p
    pi0, lam = 2 / 3, 0.7
    N = 2000
    avg_joint = np.mean([pi0 * (pi0 + (1 - pi0) * lam ** j) for j in range(1, N + 1)])
    oracle_cesaro = c0 ** 2 + 2 * c0 * b * pi0 + b ** 2 * avg_joint
    oracle_product = (c0 + b * pi0) ** 2
    oracle_gap = abs(oracle_cesaro - oracle_product)
    ok &= abs(rep["ergodicity"].gap - oracle_gap) <= 0.01
    _verdict(5, ok)


def _exact_code_measure_oracle(n, R, p0, p1):
    """Fraction-exact measure of the first 2^floor(nR) sequences under the
    (symbol-count type entropy, lex) order, by full enumeration."""
    size = code_size(n, R)
    ordered = sorted(range(2 ** n),
                     key=lambda i: (min(bin(i).count("1"), n - bin(i).count("1")), i))
    total = Fraction(0)
    for i in ordered[:size]:
        j = bin(i).count("1")
        total += Fraction(p1) ** j * Fraction(p0) ** (n - j)
    return float(total)


def test_criterion_06_direct_part_trend():
    src_spec = {"id": "bern09", "kind": "iid", "probs": [0.9, 0.1]}
    cfg = ExperimentConfig.from_dict({"sources": [src_spec], "r": R_TARGET,
                                      "n_range": N_RANGE, "seed": 61})
    rows = run_experiment(cfg)
    accepts = [r.accept_prob for r in rows]
    ok = all(r.error == "" for r in rows)
    # diagonal fast path reproduces the exact classical code measure
    for n, a in zip(N_RANGE, accepts):
        ok &= abs(a - _exact_code_measure_oracle(n, R_TARGET, Fraction(9, 10),
                                                 Fraction(1, 10))) <= 1e-8
    ok &= all(b >= a - 0.02 for a, b in zip(accepts, accepts[1:]))
    ok &= accepts[-1] > 0.9
    for n, row in zip(N_RANGE, rows):
        ok &= R_TARGET - 1e-12 <= row.achieved_rate <= R_TARGET + rate_upper_bound(2, 1, n)
    _verdict(6, ok)


def test_criterion_07_converse():
    src = IIDSource(np.eye(2) / 2)
    vals = []
    ok = True
    for n in N_RANGE:
        q = assemble_q(n, 2, 1, R_TARGET)
        accept = acceptance_probability(q, src)
        ok &= abs(accept - q.trace / 2 ** n) <= 1e-10
        vals.append(accept)
    ok &= all(b < a for a, b in zip(vals, vals[1:]))
    _verdict(7, ok)


def test_criterion_08_orbit_join():
    res = orbit_join_basis([0], 2, 2)
    w = res.matrix()
    basis = [np.array([1, 0, 0, 0.0]),
             np.array([0, 1, 1, 0.0]) / np.sqrt(2),
             np.array([0, 0, 0, 1.0])]
    sym = sum(np.outer(v, v) for v in basis)
    ok = float(np.max(np.abs(w - sym))) <= 1e-6
    ok &= res.rank == 3
    _verdict(8, ok)


def test_criterion_09_schedule_arithmetic():
    t0 = time.perf_counter()
    d = 2
    thresholds = []
    i = 0
    while 2 ** i * d ** (3 * 2 ** i) <= 10 ** 6:
        thresholds.append(2 ** i * d ** (3 * 2 ** i))
        i += 1
    thresholds.append(2 ** i * d ** (3 * 2 ** i))
    m = np.arange(8, 10 ** 6 + 1, dtype=np.int64)
    idx = np.searchsorted(np.asarray(thresholds, dtype=np.int64), m, side="right") - 1
    lo = np.asarray(thresholds, dtype=np.int64)[idx]
    hi = np.asarray(thresholds, dtype=np.int64)[idx + 1]
    ok = bool(np.all((lo <= m) & (m < hi)))
    # the schedule function agrees with the vectorized bracket on samples
    for mm in (8, 127, 128, 16383, 16384, 10 ** 6):
        s = schedule(int(mm), d, 0.7)
        ok &= s.i == int(idx[mm - 8])
        ok &= s.l == 2 ** s.i and s.n == mm // s.l
    ok &= (time.perf_counter() - t0) < 1.0
    _verdict(9, ok)


def test_criterion_10_classical_universality():
    import test_codes
    bern = IIDProcess([0.9, 0.1])
    ok = True
    for n in range(10, 61, 10):
        c = build_code(2, 0.8, n, 0)
        oracle = test_codes._typeclass_measure_oracle(n, 0.8, 0.9, 0.1)
        ok &= abs(code_measure(bern, c) - oracle) <= 1e-12
    ok &= code_measure(bern, build_code(2, 0.8, 60, 0)) >= 0.99
    fair = IIDProcess([0.5, 0.5])
    for n in (10, 20, 40, 60):
        c = build_code(2, 0.8, n, 0)
        ok &= code_measure(fair, c) <= 2.0 ** (math.floor(n * 0.8) - n) + 1e-15
    _verdict(10, ok)


def test_criterion_11_superblock_monotonicity():
    # the length-4 binary code read as a length-2 code over 4 symbols: its
    # flat member indices do not change under the regrouping
    c = build_code(2, 0.5, 4, 1)
    w1 = orbit_join_basis(c.member_indices(), 2, 4).matrix()
    w2 = orbit_join_basis(c.member_indices(), 4, 2).matrix()
    ok = projector_leq(w1, w2, tol=1e-6)
    if not ok:
        gap = (np.eye(16) - w2) @ w1
        print("superblock violation, residual norm:", np.linalg.norm(gap, 2))
        print("ranks:", round(np.trace(w1).real), round(np.trace(w2).real))
    _verdict(11, ok)


def test_criterion_12_reproducibility(tmp_path):
    cfg = {"sources": [{"id": "b", "kind": "iid", "probs": [0.9, 0.1]},
                       {"id": "m", "kind": "classical",
                        "process": {"kind": "markov", "transition": MARKOV_P}}],
           "r": 0.7, "n_range": [4, 6], "seed": 12,
           "output": str(tmp_path / "rep")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    from quclab.cli import main
    assert main(["experiment", "run", str(path)]) == 0
    first = (tmp_path / "rep.csv").read_bytes()
    assert main(["experiment", "run", str(path)]) == 0
    ok = (tmp_path / "rep.csv").read_bytes() == first
    _verdict(12, ok)
