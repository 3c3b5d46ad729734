"""Dense complex-matrix substrate: deterministic Hermitian eigendecomposition,
partial trace, and the span and range flag of a projector's basis.

All functions are pure and operate on plain complex ndarrays.  Density
operators are ordinary matrices; `validate_density` enforces the structural
invariants that every other module relies on.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, solving

HERMITIAN_TOL = 1e-10
IDEMPOTENT_TOL = 1e-8
EIG_DEGENERACY_GAP = 1e-9
RANK_SVAL_RTOL = 1e-8


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError("matrix has non-finite entries")
    return a


def check_hermitian(a) -> float:
    a = _as_matrix(a)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > HERMITIAN_TOL:
        raise ValidationError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return dev


def _phase_fix(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    z = v[i]
    if abs(z) > 0:
        v = v * (z.conjugate() / abs(z))
    return v


def _canonical_degenerate_basis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the column span of `block`.

    Gram-Schmidt over the projections of the computational basis vectors,
    taken in index order.  These projections span the whole column span, so
    k of them are always kept: a unit vector of the span orthogonal to the
    kept ones would have every entry below 1e-6 in modulus.
    """
    d, k = block.shape
    proj = block @ block.conj().T
    cols: list[np.ndarray] = []
    for j in range(d):
        w = proj[:, j].copy()
        for c in cols:
            w -= c * (c.conj() @ w)
        nrm = np.linalg.norm(w)
        if nrm > 1e-6:
            cols.append(w / nrm)
        if len(cols) == k:
            break
    return np.column_stack(cols)


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    Eigenvalues come out descending.  Inside degenerate clusters (gap below
    1e-9) the eigenvectors are canonicalized against the computational basis
    and every column is phase-fixed so its largest-magnitude entry is real
    positive.  Returns (eigenvalues, eigenvector columns); a solver that
    does not converge is a ValidationError.
    """
    a = _as_matrix(a)
    check_hermitian(a)
    with solving("Hermitian eigendecomposition"):
        w, v = np.linalg.eigh(a)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    n = len(w)
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[i] - w[j] < EIG_DEGENERACY_GAP:
            j += 1
        if j - i > 1:
            v[:, i:j] = _canonical_degenerate_basis(v[:, i:j])
        i = j
    for c in range(n):
        v[:, c] = _phase_fix(v[:, c])
    return w, v


def partial_trace(a, site_dims, traced_sites) -> np.ndarray:
    """Trace out the listed sites of an operator on a tensor-product space."""
    a = _as_matrix(a)
    site_dims = list(site_dims)
    k = len(site_dims)
    if int(np.prod(site_dims)) != a.shape[0]:
        raise ValidationError("product of site_dims does not match matrix dimension")
    traced = sorted(set(int(s) for s in traced_sites))
    if traced and (traced[0] < 0 or traced[-1] >= k):
        raise ValidationError(f"traced site index out of range for {k} sites")
    t = a.reshape(site_dims + site_dims)
    remaining = k
    for s in reversed(traced):
        t = np.trace(t, axis1=s, axis2=s + remaining)
        remaining -= 1
    kept = [d for i, d in enumerate(site_dims) if i not in traced]
    dim = int(np.prod(kept)) if kept else 1
    return t.reshape(dim, dim)


def validate_density(rho) -> dict:
    """Check Hermiticity, positivity and unit trace; returns the deviations."""
    rho = _as_matrix(rho)
    if not rho.size:
        raise ValidationError("density operator is empty")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITIAN_TOL:
        raise ValidationError(f"density operator not Hermitian (deviation {herm:.3e})")
    with solving("density operator eigenvalues"):
        evals = np.linalg.eigvalsh(rho)
    min_eig = float(evals[0])
    if min_eig < -1e-10:
        raise ValidationError(f"density operator not PSD (min eigenvalue {min_eig:.3e})")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise ValidationError(f"density operator trace {tr} is not 1")
    return {"hermiticity": herm, "min_eigenvalue": min_eig, "trace": tr}


def range_flag(basis: np.ndarray) -> np.ndarray:
    """The first eigenvector of basis basis^dagger with eigenvalue above
    1/2, in hermitian_eig's order, from the orthonormal `basis` alone: the
    first computational basis vector with weight above 1e-6 in the range,
    projected, normalised and phase-fixed, as the degenerate-cluster
    canonicalisation of hermitian_eig makes it."""
    norms = np.linalg.norm(basis, axis=1)
    rows = np.flatnonzero(norms > 1e-6)
    if rows.size == 0:
        raise ValidationError("projector range is empty")
    j = rows[0]
    return _phase_fix(basis @ basis[j].conj() / norms[j])


def span_basis(columns: np.ndarray, rtol: float = RANK_SVAL_RTOL) -> np.ndarray:
    """Orthonormal basis of the column span, rank cut at rtol * s_max."""
    if columns.size == 0:
        return columns.reshape(columns.shape[0], 0)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    return u[:, s > rtol * s[0]]
