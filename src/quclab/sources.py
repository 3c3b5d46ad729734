"""i.i.d., classically-correlated and channel-transformed quantum sources,
all in one finitely correlated (transfer) form, plus the operator-form
consistency / stationarity / ergodicity diagnostics and the abelian
(pinching) bridge to classical processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_tensor_power, heisenberg_dual
from .errors import ValidationError, check_budget, solving
from .operators import (check_hermitian, hermitian_eig, partial_trace,
                        validate_density)
from .processes import ClassicalProcess, IIDProcess

GRAM_CONDITION_CAP = 1e8
DIAG_TOL = 1e-12
# Lag terms per step of the ergodicity scan (lag_scan).
LAG_BLOCK = 2 ** 10


class QuantumAlphabet:
    """Linearly independent unit vectors, one per classical symbol."""

    def __init__(self, vectors):
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2 or not v.size:
            raise ValidationError("alphabet must be a (d, count) column matrix")
        self.d, self.count = v.shape
        if not np.all(np.isfinite(v)):
            raise ValidationError("alphabet vectors have non-finite entries")
        norms = np.linalg.norm(v, axis=0)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValidationError("alphabet vectors must be unit norm")
        gram = v.conj().T @ v
        with solving("alphabet Gram matrix condition number"):
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
    """A finitely correlated source (Fannes, Nachtergaele & Werner, CMP 144,
    1992): a left vector l over a bond of dimension chi and one d x d site
    operator M[i, j] per bond edge, with

        rho_n = sum over i_0..i_n of l[i_0] M[i_0, i_1] (x) ... (x) M[i_{n-1}, i_n].

    The transfer matrix tr M[i, j] is row-stochastic, so the last bond sums
    out (the right boundary is all-ones) and the marginals are consistent.
    The kinds below only fill (l, M).
    """

    def __init__(self, left, sites):
        self.left = np.asarray(left)
        self.sites = np.asarray(sites, dtype=complex)
        chi = len(self.left)
        if self.sites.ndim != 4 or self.sites.shape[:2] != (chi, chi) \
                or self.sites.shape[2] != self.sites.shape[3]:
            raise ValidationError("site tensor must be chi x chi x d x d")
        if not (abs(self.left.sum() - 1.0) <= 1e-8
                and np.max(np.abs(self.transfer_matrix().sum(axis=1) - 1.0)) <= 1e-8):
            raise ValidationError("left vector and transfer-matrix rows must sum to 1")
        self.d = self.sites.shape[2]
        # apply sweeps a real operand in float64 when every site operator is
        # real; a complex operand promotes it to complex
        self._sweep_sites = self.sites if self.sites.imag.any() else self.sites.real.copy()

    def transfer_matrix(self) -> np.ndarray:
        return np.trace(self.sites, axis1=2, axis2=3)

    def _strings(self, left, n: int, close: bool) -> np.ndarray:
        """sum over i_0..i_{n-1} of left[p, i_0] M[i_0, i_1] (x) ... (x)
        M[i_{n-1}, i_n], as a (p, chi, d^n, d^n) array indexed by the left row
        and i_n; with `close` the last bond is summed first (chi = 1).

        Each site's einsum holds x before and after that site and its
        iteration buffers (256 KiB), so the peak is the largest such pair of
        complex arrays plus the buffers: x grows by d^2 a site (the closed
        last site chi times less), so one of the last two pairs."""
        p, chi = np.shape(left)
        sizes = [16 * p * chi * self.d ** (2 * site) for site in range(max(0, n - 2), n + 1)]
        if close:
            sizes[-1] //= chi
        check_budget(max(map(sum, zip(sizes, sizes[1:])), default=sizes[0]) + 2 ** 18,
                     f"{n}-site operator strings of dimension {self.d}^{n}")
        x = np.asarray(left, dtype=complex)[:, :, None, None]
        closed = self.sites.sum(axis=1, keepdims=True)
        for site in range(n):
            m = closed if close and site == n - 1 else self.sites
            p, _, D, _ = x.shape
            x = np.einsum("piab,ijce->pjacbe", x, m).reshape(
                p, m.shape[1], D * self.d, D * self.d)
        return x

    def marginal(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValidationError("block length must be >= 1")
        return self._strings(self.left[None], n, close=True)[0, 0]

    def apply(self, n: int, v) -> np.ndarray:
        """rho_n v for a d^n vector or d^n x k matrix v, by sweeping v through
        the n sites one at a time; no d^n x d^n array is formed.  The sweep
        is real (float64) when the site operators, l and v are, and complex
        otherwise; a real v is cast once, before the first site.

        The sweep tensor's legs are (bond, inputs b_t..b_n, columns, outputs
        a_1..a_{t-1}).  Site t reads it as a (bond, b_t) x rest matrix, a free
        view, and writes one product per output bond j into a fresh
        (bond, rest, a_t) tensor: rest x (bond, b_t) times W_j[(i, b), a] =
        M[i, j, a, b].  The new output leg lands at the back by layout, so no
        site copies the sweep tensor.  A cast operand lives only until the
        sweep tensor is built from it, and a site holds the sweep tensor and
        the product; the check counts three chi x d^n x k arrays of the
        sweep's dtype."""
        v = np.asarray(v)
        if n < 1 or v.shape[0] != self.d ** n:
            raise ValidationError(f"operand has {v.shape[0]} rows, not {self.d}^{n}")
        d = self.d
        columns = v.size // v.shape[0]
        sites = self._sweep_sites
        dtype = np.result_type(self.left, v, sites)
        check_budget(3 * dtype.itemsize * len(self.left) * d ** n * columns,
                     f"rho_{n} V over {columns} columns")

        def weights(m):  # W[j][(i, b), a] = m[i, j, a, b]
            return m.transpose(1, 0, 3, 2).reshape(m.shape[1], -1, d).astype(dtype)

        open_w, closed_w = weights(sites), weights(sites.sum(axis=1, keepdims=True))
        t = np.multiply.outer(self.left, v.reshape(d ** n, -1).astype(dtype, copy=False))
        for site in range(n):
            w = closed_w if site == n - 1 else open_w
            flat = t.reshape(w.shape[1], -1).T
            t = np.empty((len(w), flat.shape[0], d), dtype)
            for j, wj in enumerate(w):
                np.matmul(flat, wj, out=t[j])
        return t.reshape(-1, d ** n).T.reshape(v.shape)

    def classical_view(self):
        """Driving classical process for diagonal observables, when available."""
        return None


class IIDSource(QuantumSource):
    def __init__(self, rho1):
        rho1 = np.asarray(rho1, dtype=complex)
        validate_density(rho1)
        super().__init__(np.ones(1), rho1[None, None])
        self.rho1 = rho1
        off = rho1 - np.diag(np.diag(rho1))
        self._diag = np.diag(rho1).real.copy() if np.max(np.abs(off)) <= DIAG_TOL else None

    def classical_view(self):
        return IIDProcess(self._diag) if self._diag is not None else None


class ClassicallyCorrelatedSource(QuantumSource):
    """Alphabet vectors placed along the lattice by a classical process: its
    hidden-Markov form (initial, T) gives M[i, j] = sum_s T[i, j, s] |psi_s><psi_s|."""

    def __init__(self, process: ClassicalProcess, alphabet: QuantumAlphabet):
        if process.L != alphabet.count:
            raise ValidationError("process alphabet size != quantum alphabet size")
        chi, L, d = len(process.initial), process.L, alphabet.d
        # the complex product beside the transfer tensor's complex copy, or
        # the sites beside the real copy QuantumSource keeps
        check_budget(8 * chi ** 2 * max(2 * (L + d * d), 3 * d * d),
                     f"site tensor of {chi} hidden states over {d}-dimensional sites")
        v = alphabet.vectors
        states = np.einsum("as,bs->sab", v, v.conj())
        super().__init__(process.initial, np.tensordot(process.T, states, axes=1))
        self.process = process
        self.alphabet = alphabet

    def classical_view(self):
        return self.process if self.alphabet.is_computational else None


class ChannelTransformedSource(QuantumSource):
    """The inner source with the channel applied to every site operator."""

    def __init__(self, inner: QuantumSource, channel: KrausChannel):
        if inner.d != channel.d:
            raise ValidationError("channel dimension != source site dimension")
        shape = inner.sites.shape
        # the transformed sites beside the real copy QuantumSource keeps
        check_budget(24 * shape[0] ** 2 * shape[2] ** 2,
                     f"site tensor of {shape[0]} hidden states over {shape[2]}-dimensional sites")
        super().__init__(inner.left, (inner.sites.reshape(-1, shape[2] * shape[3])
                                      @ channel.superoperator().T).reshape(shape))
        self.inner = inner
        self.channel = channel


def _reduction_deviation(s: QuantumSource, m: int, i: int, traced) -> float:
    """Largest |tr(rho_m a) - tr(rho_{m+i} a')| over observables with
    ||a|| <= 1, where a' is a with the identity on the `traced` sites of the
    m + i: the trace norm of rho_m minus the reduced rho_{m+i}."""
    reduced = partial_trace(s.marginal(m + i), [s.d] * (m + i), traced)
    return float(np.linalg.norm(s.marginal(m) - reduced, "nuc"))


def check_consistency(s: QuantumSource, m: int, i: int) -> float:
    """Max normalized deviation of tr(rho_m a) from tr(rho_{m+i} (a x I^i))."""
    return _reduction_deviation(s, m, i, range(m, m + i))


def check_stationarity(s: QuantumSource, m: int, i: int) -> float:
    """Same as check_consistency but with the observable at the lattice tail."""
    return _reduction_deviation(s, m, i, range(i))


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


def ergodicity_gap(s: QuantumSource, a, b, m: int, N: int) -> ErgodicityReport:
    """Lag-j terms tr(rho_{m+j} (a (x) 1^{j-m} (x) b)) for j = m..N, from the
    transfer form: term_j = l A_a T^{j-m} A_b 1 (transfer_observable, lag_scan)."""
    if not 1 <= m <= N:
        raise ValidationError(f"ergodicity scan needs 1 <= m <= N, got m = {m}, N = {N}")
    D = s.d ** m
    for name, x in (("a", a), ("b", b)):
        if np.shape(x) != (D, D):
            raise ValidationError(f"observable {name} must be {s.d}^{m} x {s.d}^{m} "
                                  f"= {D} x {D} at m = {m}, got {np.shape(x)}")
        check_hermitian(np.asarray(x, dtype=complex))
    return lag_scan(s, transfer_observable(s, a, m), transfer_observable(s, b, m), m, N)


def transfer_observable(s: QuantumSource, x, m: int) -> np.ndarray:
    """A_x[i, k] = tr(x S_ik) over the m-site operator strings S_ik from bond i
    to bond k; a product x_1 (x) ... (x) x_m has A_{x_1} ... A_{x_m}."""
    strings = s._strings(np.eye(len(s.left)), m, close=False)
    return np.einsum("ikxy,yx->ik", strings, np.asarray(x, dtype=complex))


def lag_scan(s: QuantumSource, A: np.ndarray, B: np.ndarray, m: int,
             N: int) -> ErgodicityReport:
    """The Cesaro diagnostic from the chi x chi matrices A and B of two m-site
    observables: term_j = u T^{j-m} w for j = m..N, with u = l A and w = B 1.
    The rows u T^k come LAG_BLOCK at a time, each block the last one times
    T^LAG_BLOCK.  The budget counts 24 bytes a term (the terms, their
    deviations and those in modulus) and 2 chi + 2 complex entries a block row."""
    if not 1 <= m <= N:
        raise ValidationError(f"ergodicity scan needs 1 <= m <= N, got m = {m}, N = {N}")
    count = N - m + 1
    check_budget(3 * 8 * count + 16 * LAG_BLOCK * (2 * len(s.left) + 2), f"{count} lag terms")
    ones = np.ones(len(s.left))
    product = float(((s.left @ A @ ones) * (s.left @ B @ ones)).real)
    # rows u T^k for k < len(rows), and step = T^len(rows), by doubling
    rows, step, w = (s.left @ A)[None], s.transfer_matrix(), B @ ones
    while len(rows) < min(count, LAG_BLOCK):
        rows = np.vstack([rows, rows @ step])
        step = step @ step
    terms = np.empty(count)
    for start in range(0, count, len(rows)):
        terms[start:start + len(rows)] = (rows @ w).real[:count - start]
        rows = rows @ step
    return ErgodicityReport(
        m=m, N=N, cesaro=float(np.mean(terms)), product=product,
        weak_mixing_avg=float(np.mean(np.abs(terms - product))),
        strong_tail=float(terms[-1] - product))


def verify_invariance(s: QuantumSource, c: KrausChannel, m_max: int = 6,
                      N: int = 200) -> dict:
    """Transform the source through the channel's tensor powers and verify that
    consistency, stationarity and the Cesaro factorization survive; also checks
    the observable-duality identity used for the reduction.  Every deviation
    is the exact supremum over observables of norm 1, a trace norm."""
    t = ChannelTransformedSource(s, c)
    # i = 1 suffices, by induction on i: rho_{m+i} reduces to rho_m one site
    # at a time, and a partial trace does not increase the trace norm, so
    # the (m, i) deviation is at most the sum of i adjacent ones
    cons = max((check_consistency(t, m, 1) for m in range(1, m_max)), default=0.0)
    stat = max((check_stationarity(t, m, 1) for m in range(1, m_max)), default=0.0)
    a = np.diag(np.eye(t.d)[0])
    ergodic = ergodicity_gap(t, a, a, 1, N)
    # the d^4 two-site matrix units |x><y| span every observable, and
    # G[y, x] = tr(rho_2 dual(|x><y|)) is what E^{x2}(rho_2)[y, x] must equal
    rho2 = s.marginal(2)
    D = t.d ** 2
    units = np.eye(D)
    G = np.empty((D, D), dtype=complex)
    for x in range(D):
        for y in range(D):
            G[y, x] = np.trace(rho2 @ heisenberg_dual(c, np.outer(units[x], units[y]), 2))
    dual_dev = np.linalg.norm(apply_tensor_power(c, rho2, 2) - G, "nuc")
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


def abelian_restriction(s: QuantumSource, l: int):
    """Restrict the source to the maximal abelian algebra generated by the
    deterministic eigenbasis B of its l-site marginal.

    Returns (classical process over alphabet d^l, eigenbasis columns).  The
    process is the source's transfer form regrouped into l-site blocks, with
    the scalar emissions T[i, j, x] = Re <b_x| M_l[i, j] |b_x>, so its
    k-block marginal is the diagonal of (B^{(x)k})^dagger rho_{lk} B^{(x)k};
    no dense rho_{lk} is formed.
    """
    _, B = hermitian_eig(s.marginal(l))
    strings = s._strings(np.eye(len(s.left)), l, close=False)
    T = np.sum(B.conj() * (strings @ B), axis=2).real
    # every M_l[i, j] built here is positive, so the clip removes rounding only
    return ClassicalProcess(s.left, np.clip(T, 0.0, None)), B
