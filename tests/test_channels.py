import itertools

import numpy as np
import pytest

from quclab import errors
from quclab.channels import (KrausChannel, amplitude_damping, apply_per_site,
                             apply_tensor_power, dephasing, depolarizing,
                             heisenberg_dual, identity_channel, validate_channel)
from quclab.errors import SizeError, ValidationError
from quclab.harness import build_channel
from randmat import haar_unitary, random_density, random_hermitian
from reference import apply_single, dual_single, random_channel


def test_identity_channel_report():
    rep = validate_channel(identity_channel(2).kraus)
    assert rep["completeness_deviation"] == 0.0
    assert rep["min_choi_eigenvalue"] >= -1e-12


def test_depolarizing_completeness():
    rep = validate_channel(depolarizing(0.25).kraus)
    assert rep["completeness_deviation"] <= 1e-12


def test_incomplete_kraus_rejected():
    with pytest.raises(ValidationError):
        KrausChannel([np.diag([1.0, 0.0])])
    rep = validate_channel([np.diag([1.0, 0.0])])
    assert abs(rep["completeness_deviation"] - 1.0) < 1e-15


def test_choi_psd_on_random_channels():
    rng = np.random.default_rng(42)
    for _ in range(5):
        rep = validate_channel(random_channel(2, 3, rng).kraus)
        assert rep["min_choi_eigenvalue"] >= -1e-10


def test_apply_identity():
    rng = np.random.default_rng(0)
    rho = random_density(4, rng)
    assert np.allclose(apply_tensor_power(identity_channel(2), rho, 2), rho)


def test_apply_factorizes_on_products():
    rng = np.random.default_rng(1)
    c = depolarizing(0.3)
    rho = random_density(2, rng)
    sig = random_density(2, rng)
    joint = apply_tensor_power(c, np.kron(rho, sig), 2)
    assert np.max(np.abs(joint - np.kron(apply_single(c, rho), apply_single(c, sig)))) < 1e-12


def test_fully_depolarizing_three_sites():
    rng = np.random.default_rng(2)
    c = depolarizing(1.0)
    rho = random_density(8, rng)
    assert np.max(np.abs(apply_tensor_power(c, rho, 3) - np.eye(8) / 8)) < 1e-12


def test_apply_matches_multiindex_sum():
    # sequential per-site application vs the literal two-site operator sum
    rng = np.random.default_rng(3)
    c = random_channel(2, 3, rng)
    rho = random_density(4, rng)
    direct = np.zeros((4, 4), dtype=complex)
    for a in c.kraus:
        for b in c.kraus:
            k = np.kron(a, b)
            direct += k @ rho @ k.conj().T
    assert np.max(np.abs(apply_tensor_power(c, rho, 2) - direct)) < 1e-12


def kron_all(ops):
    out = np.eye(1)
    for a in ops:
        out = np.kron(out, a)
    return out


@pytest.mark.parametrize("d, n_kraus", [(2, 3), (3, 2)])
def test_per_site_kernel_matches_multiindex_sum(d, n_kraus):
    # the literal three-site operator sum over every Kraus triple
    rng = np.random.default_rng(10 + d)
    c = random_channel(d, n_kraus, rng)
    rho = random_density(d ** 3, rng)
    direct = np.zeros_like(rho)
    for ks in itertools.product(c.kraus, repeat=3):
        k = kron_all(ks)
        direct += k @ rho @ k.conj().T
    assert np.max(np.abs(apply_per_site(c.superoperator(), rho, 3) - direct)) < 1e-12
    assert np.max(np.abs(apply_tensor_power(c, rho, 3) - direct)) < 1e-12


def test_duality_three_qutrit_sites():
    rng = np.random.default_rng(11)
    c = random_channel(3, 2, rng)
    for _ in range(3):
        rho = random_density(27, rng)
        a = random_hermitian(27, rng)
        lhs = np.trace(apply_tensor_power(c, rho, 3) @ a)
        rhs = np.trace(rho @ heisenberg_dual(c, a, 3))
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_per_site_kernel_basis_change(d):
    rng = np.random.default_rng(12)
    u = haar_unitary(d, rng)
    rho = random_density(d ** 3, rng)
    u3 = kron_all([u] * 3)
    out = apply_per_site(np.kron(u.conj().T, u.T), rho, 3)
    assert np.max(np.abs(out - u3.conj().T @ rho @ u3)) < 1e-12


def test_per_site_kernel_guards(monkeypatch):
    s = depolarizing(0.2).superoperator()
    with pytest.raises(ValidationError):
        apply_per_site(s, np.eye(8), 2)
    # m = 3 holds four complex 8 x 8 arrays: one byte less is refused
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 4 * 16 * 8 ** 2 - 1)
    with pytest.raises(SizeError):
        apply_per_site(s, np.eye(8), 3)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 4 * 16 * 8 ** 2)
    assert apply_per_site(s, np.eye(8), 3).shape == (8, 8)


def test_trace_preserved():
    rng = np.random.default_rng(4)
    for _ in range(5):
        c = random_channel(2, 2, rng)
        rho = random_density(8, rng)
        out = apply_tensor_power(c, rho, 3)
        assert abs(np.trace(out).real - 1.0) < 1e-10


def test_dual_identity_channel():
    rng = np.random.default_rng(5)
    a = random_hermitian(4, rng)
    assert np.allclose(heisenberg_dual(identity_channel(2), a, 2), a)


def test_dual_of_identity_observable():
    rng = np.random.default_rng(6)
    c = random_channel(2, 3, rng)
    assert np.max(np.abs(heisenberg_dual(c, np.eye(4), 2) - np.eye(4))) < 1e-10


def test_duality_identity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = random_channel(2, 2, rng)
        rho = random_density(4, rng)
        a = random_hermitian(4, rng)
        lhs = np.trace(apply_tensor_power(c, rho, 2) @ a)
        rhs = np.trace(rho @ heisenberg_dual(c, a, 2))
        assert abs(lhs - rhs) < 1e-10


def test_duality_with_gap_observable():
    # a x I x b form on m + i sites
    rng = np.random.default_rng(8)
    c = random_channel(2, 2, rng)
    rho = random_density(8, rng)
    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    obs = np.kron(np.kron(a, np.eye(2)), b)
    at = dual_single(c, a)
    bt = dual_single(c, b)
    lhs = np.trace(apply_tensor_power(c, rho, 3) @ obs)
    rhs = np.trace(rho @ np.kron(np.kron(at, np.eye(2)), bt))
    assert abs(lhs - rhs) < 1e-10


def test_site_order_irrelevant():
    rng = np.random.default_rng(9)
    c = amplitude_damping(0.4)
    rho = random_density(4, rng)
    out = apply_tensor_power(c, rho, 2)

    def swap_sites(op):
        # exchange the two site legs on both the row and the column side
        return op.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)

    rev = swap_sites(apply_tensor_power(c, swap_sites(rho), 2))
    assert np.max(np.abs(out - rev)) < 1e-10


def test_dephasing_kills_coherences():
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = apply_single(dephasing(1.0), plus)
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12


def test_channel_from_spec():
    assert build_channel({"name": "identity"}).d == 2
    assert len(build_channel({"name": "depolarizing", "p": 0.25}).kraus) == 4
    with pytest.raises(ValidationError):
        build_channel({"name": "nope"})
    c = build_channel({"name": "custom",
                           "kraus": [[[[1, 0], [0, 1]], [[0, 0], [0, 0]]]]})
    assert np.allclose(c.kraus[0], np.eye(2))
