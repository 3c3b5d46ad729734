"""Kraus-form trace-preserving completely positive maps and tensor powers.

Tensor powers go through one per-site superoperator kernel (`apply_per_site`):
the d^2 x d^2 superoperator is contracted into each site in turn, which is
algebraically identical to the multi-index operator sum but costs m tensor
contractions instead of |kraus|^m terms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, check_budget, solving

COMPLETENESS_TOL = 1e-10
CHOI_EIG_FLOOR = -1e-10


class KrausChannel:
    def __init__(self, kraus):
        self.kraus = [np.asarray(a, dtype=complex) for a in kraus]
        if not self.kraus:
            raise ValidationError("channel needs at least one Kraus operator")
        d = self.kraus[0].shape[0] if self.kraus[0].ndim else 0  # a 0-d one fails below
        for a in self.kraus:
            if a.shape != (d, d):
                raise ValidationError("Kraus operators must be square with equal dims")
        if not all(np.isfinite(a).all() for a in self.kraus):
            raise ValidationError("Kraus operators have non-finite entries")
        self.d = d
        rep = validate_channel(self.kraus)
        if rep["completeness_deviation"] > COMPLETENESS_TOL:
            raise ValidationError(
                f"Kraus family not trace-preserving "
                f"(deviation {rep['completeness_deviation']:.3e})")
        if rep["min_choi_eigenvalue"] < CHOI_EIG_FLOOR:
            raise ValidationError(
                f"Choi matrix not PSD (min eigenvalue {rep['min_choi_eigenvalue']:.3e})")

    def superoperator(self) -> np.ndarray:
        """sum_i A_i kron conj(A_i), the map on the row-major vec."""
        return sum(np.kron(a, a.conj()) for a in self.kraus)


def validate_channel(kraus) -> dict:
    """Report-style check of Kraus arrays: completeness deviation and minimum Choi eigenvalue."""
    d = len(kraus[0])
    comp = sum(a.conj().T @ a for a in kraus)
    dev = float(np.max(np.abs(comp - np.eye(d))))
    choi = np.zeros((d * d, d * d), dtype=complex)
    for a in kraus:
        v = a.reshape(-1, order="F")  # column-stacking vec
        choi += np.outer(v, v.conj())
    with solving("Choi matrix eigenvalues"):
        min_eig = float(np.linalg.eigvalsh(choi)[0])
    return {"completeness_deviation": dev, "min_choi_eigenvalue": min_eig}


def apply_per_site(S, op, m: int) -> np.ndarray:
    """Apply the single-site superoperator S (d^2 x d^2) at every site of a
    d^m x d^m operator.

    S acts on the row-major vec, vec(A X B) = (A kron B^T) vec(X), so the map
    X -> sum_i A_i X A_i^dagger has S = sum_i A_i kron conj(A_i).

    The working set is four complex d^m x d^m arrays: the operator, the
    previous site's result, the transposed copy tensordot makes of it and
    the product.
    """
    S = np.asarray(S, dtype=complex)
    d = math.isqrt(S.shape[0])
    rows = np.shape(op)[0]
    if rows != d ** m:
        raise ValidationError(f"operator dimension {rows} != {d}^{m}")
    check_budget(4 * 16 * d ** (2 * m), f"per-site map on dimension {d}^{m}")
    op = np.asarray(op, dtype=complex)
    s4 = S.reshape(d, d, d, d)
    t = op.reshape((d,) * (2 * m))
    for site in range(m):
        # contract the site's row and column legs, then put the output legs back
        t = np.moveaxis(np.tensordot(s4, t, axes=([2, 3], [site, m + site])),
                        (0, 1), (site, m + site))
    return t.reshape(op.shape)


def apply_tensor_power(c: KrausChannel, rho, m: int) -> np.ndarray:
    return apply_per_site(c.superoperator(), rho, m)


def heisenberg_dual(c: KrausChannel, obs, m: int) -> np.ndarray:
    """Observable dual: tr(E^{x m}(rho) a) = tr(rho dual(a)) for all rho."""
    return apply_per_site(c.superoperator().conj().T, obs, m)


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def identity_channel(d: int = 2) -> KrausChannel:
    if d < 1:
        raise ValidationError(f"channel dimension d = {d} must be >= 1")
    return KrausChannel([np.eye(d)])


def depolarizing(p: float) -> KrausChannel:
    if not 0 <= p <= 1:
        raise ValidationError("depolarizing strength must be in [0, 1]")
    return KrausChannel([
        np.sqrt(1 - 3 * p / 4) * np.eye(2),
        np.sqrt(p / 4) * _PAULI_X,
        np.sqrt(p / 4) * _PAULI_Y,
        np.sqrt(p / 4) * _PAULI_Z,
    ])


def dephasing(p: float) -> KrausChannel:
    """p = 1 kills all off-diagonal terms in the computational basis."""
    if not 0 <= p <= 1:
        raise ValidationError("dephasing strength must be in [0, 1]")
    return KrausChannel([np.sqrt(1 - p / 2) * np.eye(2), np.sqrt(p / 2) * _PAULI_Z])


def amplitude_damping(gamma: float) -> KrausChannel:
    if not 0 <= gamma <= 1:
        raise ValidationError("damping strength must be in [0, 1]")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel([k0, k1])
