import numpy as np
import pytest

from quclab.errors import ValidationError
from quclab.operators import hermitian_eig, partial_trace, span_basis, validate_density
from randmat import haar_unitary, random_density, random_hermitian, random_projector
from reference import projector_leq, range_basis, validate_projector


def test_hermitian_eig_diagonal():
    w, v = hermitian_eig(np.diag([0.9, 0.1]))
    assert np.allclose(w, [0.9, 0.1])


def test_hermitian_eig_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = hermitian_eig(x)
    assert np.allclose(w, [1, -1])
    assert np.allclose(np.abs(v[:, 0]), [1, 1] / np.sqrt(2))
    assert np.allclose(v[:, 0], v[1, 0] * np.array([1, 1]))  # same sign
    assert np.allclose(np.abs(v[:, 1]), [1, 1] / np.sqrt(2))


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = random_hermitian(6, rng)
        w, v = hermitian_eig(a)
        assert np.max(np.abs((v * w) @ v.conj().T - a)) <= 1e-9 * max(np.max(np.abs(a)), 1)
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-9
        assert np.all(np.diff(w) <= 1e-15)


def test_hermitian_eig_deterministic_under_degeneracy():
    # projector with a 2-fold degenerate eigenvalue; two calls must agree exactly
    rng = np.random.default_rng(3)
    p = random_projector(4, 2, rng)
    w1, v1 = hermitian_eig(p)
    w2, v2 = hermitian_eig(p.copy())
    assert np.array_equal(v1, v2)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValidationError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_partial_trace_product():
    rng = np.random.default_rng(4)
    rho = random_density(2, rng)
    sig = random_density(3, rng)
    out = partial_trace(np.kron(rho, sig), [2, 3], [1])
    assert np.allclose(out, rho, atol=1e-12)


def test_partial_trace_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, [2, 2], [1]), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = random_density(4, rng)
        assert abs(np.trace(partial_trace(rho, [2, 2], [0])) - 1) < 1e-12


def test_partial_trace_index_error():
    with pytest.raises(ValidationError):
        partial_trace(np.eye(4) / 4, [2, 2], [2])


def test_validate_density_catches_bad_trace():
    with pytest.raises(ValidationError):
        validate_density(np.eye(2))


def test_validate_projector_rank():
    assert validate_projector(np.diag([1.0, 1.0, 0.0]))["rank"] == 2
    with pytest.raises(ValidationError):
        validate_projector(np.diag([0.5, 0.5]))


def test_validate_projector_real_grids():
    # a grid with zero imaginary part is squared in real arithmetic: a real
    # Hermitian non-idempotent one is still rejected, a real projector kept
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    p = (q @ q.T).astype(complex)
    assert validate_projector(p)["rank"] == 3
    bent = p + 1e-6 * np.diag(np.arange(6.0))
    with pytest.raises(ValidationError, match="not idempotent"):
        validate_projector(bent)
    with pytest.raises(ValidationError, match="not idempotent"):
        validate_projector(bent + 1e-3j * (np.eye(6, k=1) - np.eye(6, k=-1)))


def test_projector_leq_basics():
    p = np.diag([1.0, 0.0])
    assert projector_leq(p, np.eye(2))
    assert not projector_leq(p, np.diag([0.0, 1.0]))


def test_span_basis_rank():
    cols = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
    assert span_basis(cols).shape[1] == 1


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(7)
    u = haar_unitary(4, rng)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_range_basis_matches_rank():
    rng = np.random.default_rng(8)
    p = random_projector(6, 3, rng)
    assert range_basis(p).shape == (6, 3)
