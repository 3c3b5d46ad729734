"""Consistent marginal families for i.i.d., classically-correlated and
channel-transformed quantum sources, plus the operator-form consistency /
stationarity / ergodicity diagnostics and the abelian (pinching) bridge to
classical processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (KrausChannel, apply_per_site, apply_tensor_power,
                       heisenberg_dual)
from .errors import SizeError, ValidationError
from .operators import (DEFAULT_DIM_CAP, check_hermitian, hermitian_eig,
                        partial_trace, random_hermitian, validate_density)
from .processes import ClassicalProcess, EvaluatorProcess, IIDProcess

GRAM_CONDITION_CAP = 1e8
DIAG_TOL = 1e-12


class QuantumAlphabet:
    """Linearly independent unit vectors, one per classical symbol."""

    def __init__(self, vectors):
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2:
            raise ValidationError("alphabet must be a (d, count) column matrix")
        self.d, self.count = v.shape
        norms = np.linalg.norm(v, axis=0)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValidationError("alphabet vectors must be unit norm")
        gram = v.conj().T @ v
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > GRAM_CONDITION_CAP:
            raise ValidationError(
                f"alphabet Gram matrix condition number {cond:.3e} exceeds "
                f"{GRAM_CONDITION_CAP:.0e}; vectors are too close to dependent")
        self.vectors = v
        self.is_computational = (self.count == self.d and
                                 np.max(np.abs(v - np.eye(self.d))) == 0.0)

    @classmethod
    def computational(cls, d: int) -> "QuantumAlphabet":
        return cls(np.eye(d))


class QuantumSource:
    """Base class; marginals are cached per block length."""

    d: int

    def __init__(self):
        self._cache: dict[int, np.ndarray] = {}

    def marginal(self, n: int, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
        if self.d ** n > dim_cap:
            raise SizeError(f"marginal dimension {self.d}^{n} exceeds cap {dim_cap}")
        rho = self._cache.get(n)
        if rho is None:
            rho = self._compute_marginal(n)
            self._cache[n] = rho
        return rho

    def _compute_marginal(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def diagonal_marginal(self, n: int):
        """Diagonal of the n-site marginal in the computational basis, when the
        marginal is exactly diagonal there; otherwise None."""
        return None

    def classical_view(self):
        """Driving classical process for diagonal observables, when available."""
        return None


class IIDSource(QuantumSource):
    def __init__(self, rho1):
        super().__init__()
        rho1 = np.asarray(rho1, dtype=complex)
        validate_density(rho1)
        self.rho1 = rho1
        self.d = rho1.shape[0]
        off = rho1 - np.diag(np.diag(rho1))
        self._diag = np.diag(rho1).real.copy() if np.max(np.abs(off)) <= DIAG_TOL else None

    def _compute_marginal(self, n: int) -> np.ndarray:
        out = self.rho1
        for _ in range(n - 1):
            out = np.kron(out, self.rho1)
        return out

    def diagonal_marginal(self, n: int):
        if self._diag is None:
            return None
        out = self._diag
        for _ in range(n - 1):
            out = np.outer(out, self._diag).ravel()
        return out

    def classical_view(self):
        return IIDProcess(self._diag) if self._diag is not None else None


class ClassicallyCorrelatedSource(QuantumSource):
    """Alphabet vectors placed along the lattice by a classical process."""

    def __init__(self, process: ClassicalProcess, alphabet: QuantumAlphabet):
        super().__init__()
        if process.L != alphabet.count:
            raise ValidationError("process alphabet size != quantum alphabet size")
        self.process = process
        self.alphabet = alphabet
        self.d = alphabet.d

    def _compute_marginal(self, n: int) -> np.ndarray:
        mu = self.process.marginal(n).probs
        if self.alphabet.is_computational:
            return np.diag(mu.astype(complex))
        # columns of W enumerate the product vectors for all L^n sequences
        W = self.alphabet.vectors
        for _ in range(n - 1):
            W = np.kron(W, self.alphabet.vectors)
        return (W * mu) @ W.conj().T

    def diagonal_marginal(self, n: int):
        if not self.alphabet.is_computational:
            return None
        return self.process.marginal(n).probs

    def classical_view(self):
        return self.process if self.alphabet.is_computational else None


class ChannelTransformedSource(QuantumSource):
    def __init__(self, inner: QuantumSource, channel: KrausChannel):
        super().__init__()
        if inner.d != channel.d:
            raise ValidationError("channel dimension != source site dimension")
        self.inner = inner
        self.channel = channel
        self.d = inner.d

    def _compute_marginal(self, n: int) -> np.ndarray:
        return apply_tensor_power(self.channel, self.inner.marginal(n), n)


def _observable_batch(dim, trials, rng, observables=None):
    if observables is not None:
        return [np.asarray(a, complex) for a in observables]
    return [random_hermitian(dim, rng) for _ in range(trials)]


def _reduction_deviation(s: QuantumSource, m: int, i: int, traced, trials,
                         rng, observables) -> float:
    """Max normalized deviation of tr(rho_m a) from tr(rho_{m+i} a') where a'
    is a with the identity on the `traced` sites of the m + i."""
    rng = rng or np.random.default_rng(0)
    reduced = partial_trace(s.marginal(m + i), [s.d] * (m + i), traced)
    diff = s.marginal(m) - reduced
    dev = 0.0
    for a in _observable_batch(s.d ** m, trials, rng, observables):
        dev = max(dev, abs(np.trace(diff @ a)) / max(np.linalg.norm(a, 2), 1e-300))
    return float(dev)


def check_consistency(s: QuantumSource, m: int, i: int, trials: int = 8,
                      rng=None, observables=None) -> float:
    """Max normalized deviation of tr(rho_m a) from tr(rho_{m+i} (a x I^i))."""
    return _reduction_deviation(s, m, i, range(m, m + i), trials, rng, observables)


def check_stationarity(s: QuantumSource, m: int, i: int, trials: int = 8,
                       rng=None, observables=None) -> float:
    """Same as check_consistency but with the observable at the lattice tail."""
    return _reduction_deviation(s, m, i, range(i), trials, rng, observables)


@dataclass
class ErgodicityReport:
    """Finite-N diagnostic for the Cesaro factorization of correlations.

    Never a proof: the defining property is a limit, so only the observed gap
    at the requested N is reported, together with the weak-mixing average of
    absolute deviations and the strong-mixing tail term.
    """

    m: int
    N: int
    cesaro: float
    product: float
    weak_mixing_avg: float
    strong_tail: float

    @property
    def gap(self) -> float:
        return abs(self.cesaro - self.product)


def _is_diag(a) -> bool:
    return float(np.max(np.abs(a - np.diag(np.diag(a))))) <= DIAG_TOL


def ergodicity_gap(s: QuantumSource, a, b, m: int, N: int,
                   dim_cap: int = DEFAULT_DIM_CAP) -> ErgodicityReport:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_hermitian(a)
    check_hermitian(b)
    if isinstance(s, ChannelTransformedSource):
        return ergodicity_gap(s.inner, heisenberg_dual(s.channel, a, m),
                              heisenberg_dual(s.channel, b, m), m, N, dim_cap)
    if isinstance(s, IIDSource):
        # product states factorize term by term at every lag
        rho_m = s.marginal(m)
        ta = float(np.trace(rho_m @ a).real)
        tb = float(np.trace(rho_m @ b).real)
        product = ta * tb
        return ErgodicityReport(m=m, N=N, cesaro=product, product=product,
                                weak_mixing_avg=0.0, strong_tail=0.0)
    view = s.classical_view()
    if view is not None and _is_diag(a) and _is_diag(b):
        f = np.diag(a).real.copy()
        g = np.diag(b).real.copy()
        terms = view.lagged_pair_expectations(f, g, m, range(m, N + 1))
        product = view.mean_observable(f, m) * view.mean_observable(g, m)
    else:
        if s.d ** (m + N) > dim_cap:
            raise SizeError(
                "ergodicity scan needs rho up to {}^{}; use diagonal observables "
                "for the classical fast path".format(s.d, m + N))
        rho_m = s.marginal(m)
        product = float((np.trace(rho_m @ a) * np.trace(rho_m @ b)).real)
        terms = []
        for i in range(m, N + 1):
            mid = np.eye(s.d ** (i - m))
            obs = np.kron(np.kron(a, mid), b)
            terms.append(float(np.trace(s.marginal(m + i) @ obs).real))
        terms = np.asarray(terms)
    cesaro = float(np.mean(terms))
    return ErgodicityReport(
        m=m, N=N, cesaro=cesaro, product=float(product),
        weak_mixing_avg=float(np.mean(np.abs(terms - product))),
        strong_tail=float(terms[-1] - product))


def verify_invariance(s: QuantumSource, c: KrausChannel, m_max: int = 6,
                      N: int = 200, trials: int = 4, rng=None) -> dict:
    """Transform the source through the channel's tensor powers and verify that
    consistency, stationarity and the Cesaro factorization survive; also checks
    the observable-duality identity used for the reduction."""
    rng = rng or np.random.default_rng(0)
    t = ChannelTransformedSource(s, c)
    cons = 0.0
    stat = 0.0
    for m in range(1, m_max):
        for i in range(1, m_max - m + 1):
            cons = max(cons, check_consistency(t, m, i, trials, rng))
            stat = max(stat, check_stationarity(t, m, i, trials, rng))
    a = np.zeros((t.d, t.d))
    a[0, 0] = 1.0
    ergodic = ergodicity_gap(t, a, a, 1, N)
    dual_dev = 0.0
    rho2 = s.marginal(2)
    for _ in range(trials):
        obs = random_hermitian(t.d ** 2, rng)
        lhs = np.trace(apply_tensor_power(c, rho2, 2) @ obs)
        rhs = np.trace(rho2 @ heisenberg_dual(c, obs, 2))
        dual_dev = max(dual_dev, abs(lhs - rhs))
    return {"consistency": cons, "stationarity": stat,
            "ergodicity": ergodic, "duality": float(dual_dev)}


def conditional_expectation(a, basis) -> np.ndarray:
    """Pinching onto the maximal abelian algebra spanned by the basis."""
    a = np.asarray(a, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    if basis.shape[0] != basis.shape[1] or basis.shape[0] != a.shape[0]:
        raise ValidationError("basis must be a square matrix spanning the space")
    if np.max(np.abs(basis.conj().T @ basis - np.eye(basis.shape[0]))) > 1e-10:
        raise ValidationError("basis columns are not orthonormal")
    diag = np.diag(basis.conj().T @ a @ basis)
    return (basis * diag) @ basis.conj().T


def abelian_restriction(s: QuantumSource, l: int,
                        dim_cap: int = DEFAULT_DIM_CAP):
    """Restrict the source to the maximal abelian algebra generated by the
    deterministic eigenbasis of its l-site marginal.

    Returns (classical process over alphabet d^l, eigenbasis columns).  The
    process evaluates exact block marginals by pinching rho_{l k} into the
    product eigenbasis.
    """
    rho_l = s.marginal(l, dim_cap)
    _, B = hermitian_eig(rho_l)
    D = s.d ** l
    conjugate = np.kron(B.conj().T, B.T)  # X -> B^dagger X B on one block

    def marginal_fn(k: int):
        rho = s.marginal(l * k, dim_cap)
        transformed = apply_per_site(conjugate, rho, k, dim_cap)
        diag = np.diag(transformed).real
        return np.clip(diag, 0.0, None) / np.clip(diag, 0.0, None).sum()

    return EvaluatorProcess(D, marginal_fn), B
