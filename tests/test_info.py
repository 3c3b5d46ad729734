import math

import numpy as np
import pytest

from quclab.channels import depolarizing
from quclab.errors import ValidationError
from quclab.info import entanglement_fidelity, fidelity, mean_entropy, von_neumann_entropy
from quclab.operators import partial_trace
from quclab.processes import IIDProcess, MarkovProcess, MixtureProcess, entropy_bits
from quclab.sources import (ClassicallyCorrelatedSource, IIDSource,
                            QuantumAlphabet)
from randmat import random_density
from reference import apply_single, purification, purified_entanglement_fidelity, random_channel

H01 = entropy_bits([0.9, 0.1])


def test_entropy_examples():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(von_neumann_entropy(np.diag([0.9, 0.1])) - H01) < 1e-12


def test_entropy_rejects_negative():
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([1.1, -0.1]))


def test_mean_entropy_iid():
    est = mean_entropy(IIDSource(np.diag([0.9, 0.1])), [1, 2, 3, 4])
    for _, v in est.values:
        assert abs(v - H01) < 1e-12
    assert abs(est.analytic - H01) < 1e-12


def test_mean_entropy_markov_decreasing():
    mk = MarkovProcess([[0.9, 0.1], [0.2, 0.8]])
    s = ClassicallyCorrelatedSource(mk, QuantumAlphabet.computational(2))
    est = mean_entropy(s, [1, 2, 4, 6, 8])
    vals = [v for _, v in est.values]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
    assert abs(est.analytic - mk.entropy_rate()) < 1e-12
    assert vals[-1] > est.analytic  # converging from above
    # per-n values equal the classical block entropies
    for n, v in est.values:
        assert abs(v - mk.marginal(n).entropy() / n) < 1e-10


def test_mean_entropy_nonstationary_has_no_analytic_rate():
    # a chain started off its stationary law: the measured values still come,
    # alone or as a mixture component
    mk = MarkovProcess([[0.9, 0.1], [0.2, 0.8]], initial=[1.0, 0.0])
    mix = MixtureProcess([0.5, 0.5], [mk, IIDProcess([0.5, 0.5])])
    for process in (mk, mix):
        s = ClassicallyCorrelatedSource(process, QuantumAlphabet.computational(2))
        est = mean_entropy(s, [1, 2, 3])
        assert est.analytic is None
        for n, v in est.values:
            assert abs(v - process.marginal(n).entropy() / n) < 1e-10
    # the chain starts on symbol 0: S(rho_1) is +0.0, not -0.0
    assert math.copysign(1.0, mk.marginal(1).entropy()) == 1.0


def test_mean_entropy_pure():
    est = mean_entropy(IIDSource(np.diag([1.0, 0.0])), [1, 2, 3])
    assert all(abs(v) < 1e-12 for _, v in est.values)


def test_n_shift_entropy_scaling():
    # regrouping N sites into one supersite multiplies the rate by N
    s = IIDSource(np.diag([0.9, 0.1]))
    for N in (2, 3):
        block = IIDSource(s.marginal(N))
        est = mean_entropy(block, [1, 2])
        assert abs(est.analytic - N * H01) < 1e-10


def test_fidelity_examples():
    rng = np.random.default_rng(0)
    rho = random_density(4, rng)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-9
    assert fidelity(np.diag([1.0, 0]), np.diag([0, 1.0])) < 1e-9
    assert abs(fidelity(np.eye(2) / 2, np.diag([1.0, 0.0])) - np.sqrt(0.5)) < 1e-12


def test_fidelity_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_density(3, rng)
        b = random_density(3, rng)
        f = fidelity(a, b)
        assert abs(f - fidelity(b, a)) < 1e-9
        assert -1e-12 <= f <= 1 + 1e-9


def test_purification_reduces_correctly():
    rng = np.random.default_rng(2)
    rho = random_density(4, rng)
    theta = purification(rho)
    pure = np.outer(theta, theta.conj())
    assert np.max(np.abs(partial_trace(pure, [4, 4], [1]) - rho)) < 1e-10


def test_entanglement_fidelity_identity():
    rng = np.random.default_rng(3)
    rho = random_density(4, rng)
    assert abs(entanglement_fidelity(rho, [np.eye(4)]) - 1.0) < 1e-12


def test_entanglement_fidelity_pure_input():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    c = depolarizing(0.3)
    fe = entanglement_fidelity(rho, c.kraus)
    assert abs(fe - (v.conj() @ apply_single(c, rho) @ v).real) < 1e-12


def test_entanglement_fidelity_dual_paths():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = rng.choice([2, 4])
        rho = random_density(d, rng)
        c = random_channel(d, 2, rng)
        fi = entanglement_fidelity(rho, c.kraus)
        fp = purified_entanglement_fidelity(rho, c.kraus)
        assert abs(fi - fp) < 1e-9


def test_entanglement_fidelity_below_state_fidelity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        rho = random_density(2, rng)
        c = random_channel(2, 2, rng)
        fe = entanglement_fidelity(rho, c.kraus)
        f = fidelity(rho, apply_single(c, rho))
        assert fe <= f ** 2 + 1e-9 and fe <= f + 1e-9

