"""Entropy, fidelity and rate measures.  All logarithms are base 2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import check_hermitian, hermitian_eig
from .processes import entropy_bits
from .sources import (ClassicallyCorrelatedSource, IIDSource, QuantumSource)

EIG_CLAMP = -1e-10


def _clamped_spectrum(rho) -> np.ndarray:
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    if w[0] < EIG_CLAMP:
        raise ValidationError(f"operator has eigenvalue {w[0]:.3e} below the PSD floor")
    return np.clip(w, 0.0, None)


def von_neumann_entropy(rho) -> float:
    return entropy_bits(_clamped_spectrum(rho))


@dataclass
class EntropyRateEstimate:
    values: list          # (n, S(rho_n)/n) pairs
    extrapolated: float
    analytic: float | None


def mean_entropy(s: QuantumSource, n_list) -> EntropyRateEstimate:
    values = [(int(n), von_neumann_entropy(s.marginal(n)) / n) for n in n_list]
    analytic = None
    if isinstance(s, IIDSource):
        analytic = von_neumann_entropy(s.rho1)
    elif (isinstance(s, ClassicallyCorrelatedSource) and s.alphabet.is_computational
          and getattr(s.process, "stationary", True)):
        # a chain started off its stationary law has no entropy rate to report
        rate = getattr(s.process, "entropy_rate", None)
        analytic = rate() if rate else None
    return EntropyRateEstimate(values=values, extrapolated=values[-1][1],
                               analytic=analytic)


def _psd_sqrt(rho) -> np.ndarray:
    w, v = hermitian_eig(np.asarray(rho, dtype=complex))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(phi, sigma) -> float:
    phi = np.asarray(phi, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if phi.shape != sigma.shape:
        raise ValidationError("fidelity requires equal dimensions")
    r = _psd_sqrt(phi)
    w = np.linalg.eigvalsh(r @ sigma @ r)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def purification(rho):
    """|Theta> on (system x reference) from the eigendecomposition of rho."""
    w, v = hermitian_eig(np.asarray(rho, dtype=complex))
    w = np.clip(w, 0.0, None)
    d = rho.shape[0]
    theta = np.zeros(d * d, dtype=complex)
    for i in range(d):
        theta += np.sqrt(w[i]) * np.kron(v[:, i], np.eye(d)[:, i])
    return theta


def entanglement_fidelity(rho, kraus, method: str = "intrinsic") -> float:
    """F_e of a state under a Kraus-form map.

    'intrinsic': sum_i |tr(A_i rho)|^2 (production path, no dimension
    squaring).  'purification': purify, apply (map x id) and take the squared
    fidelity against the purification; retained as the independent check.
    """
    rho = np.asarray(rho, dtype=complex)
    kraus = [np.asarray(a, dtype=complex) for a in kraus]
    if method == "intrinsic":
        return float(sum(abs(np.trace(a @ rho)) ** 2 for a in kraus))
    if method == "purification":
        check_hermitian(rho)
        d = rho.shape[0]
        theta = purification(rho)
        out = np.zeros((d * d, d * d), dtype=complex)
        pure = np.outer(theta, theta.conj())
        for a in kraus:
            big = np.kron(a, np.eye(d))
            out += big @ pure @ big.conj().T
        return float((theta.conj() @ out @ theta).real)
    raise ValidationError(f"unknown method {method!r}")

