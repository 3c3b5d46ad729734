"""Reference implementations the tests share, one copy each: the slow
definitions the package's paths are checked against (Kraus sums, the
purified entanglement fidelity, digit expansions, marginalization, projector
checks), random channels, sequence probabilities from a kind's own `prob`,
forbidden-call stubs and the recorders of the memory budget's checks."""

import tracemalloc

import numpy as np
import pytest

from quclab import channels, codes, errors, processes, projectors, sources
from quclab.channels import KrausChannel
from quclab.operators import (HERMITIAN_TOL, IDEMPOTENT_TOL, _as_matrix, check_hermitian,
                              hermitian_eig)
from quclab.processes import Distribution
from randmat import haar_unitary

# the modules whose size checks the budget recorders intercept
CHECKED = (channels, codes, processes, projectors, sources)


def apply_single(c: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_i A_i rho A_i^dagger, term by term."""
    out = np.zeros_like(rho)
    for a in c.kraus:
        out += a @ rho @ a.conj().T
    return out


def dual_single(c: KrausChannel, obs: np.ndarray) -> np.ndarray:
    """sum_i A_i^dagger obs A_i, term by term."""
    out = np.zeros_like(obs)
    for a in c.kraus:
        out += a.conj().T @ obs @ a
    return out


def purification(rho):
    """|Theta> on (system x reference) from the eigendecomposition of rho."""
    w, v = hermitian_eig(np.asarray(rho, dtype=complex))
    w = np.clip(w, 0.0, None)
    d = rho.shape[0]
    theta = np.zeros(d * d, dtype=complex)
    for i in range(d):
        theta += np.sqrt(w[i]) * np.kron(v[:, i], np.eye(d)[:, i])
    return theta


def purified_entanglement_fidelity(rho, kraus) -> float:
    """F_e by its definition: purify rho, apply (map x id) and take the
    squared fidelity against the purification; the independent check of
    info.entanglement_fidelity's intrinsic formula."""
    rho = np.asarray(rho, dtype=complex)
    check_hermitian(rho)
    d = rho.shape[0]
    theta = purification(rho)
    out = np.zeros((d * d, d * d), dtype=complex)
    pure = np.outer(theta, theta.conj())
    for a in kraus:
        big = np.kron(np.asarray(a, dtype=complex), np.eye(d))
        out += big @ pure @ big.conj().T
    return float((theta.conj() @ out @ theta).real)


def random_channel(d, n_kraus, rng) -> KrausChannel:
    """Random Kraus family from a Haar isometry (columns of a unitary slice)."""
    iso = haar_unitary(d * n_kraus, rng)[:, :d]
    return KrausChannel([iso[i * d:(i + 1) * d, :] for i in range(n_kraus)])


def marginalize_last(dist: Distribution, i: int) -> Distribution:
    """Sum out the last i symbols."""
    p = dist.probs.reshape(dist.L ** (dist.n - i), dist.L ** i).sum(axis=1)
    return Distribution(dist.L, dist.n - i, p)


def marginalize_first(dist: Distribution, i: int) -> Distribution:
    """Sum out the first i symbols."""
    p = dist.probs.reshape(dist.L ** i, dist.L ** (dist.n - i)).sum(axis=0)
    return Distribution(dist.L, dist.n - i, p)


def sequence_index(seq, L: int) -> int:
    idx = 0
    for s in seq:
        idx = idx * L + int(s)
    return idx


def index_sequence(idx: int, L: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        out.append(idx % L)
        idx //= L
    return tuple(reversed(out))


def sequence_probs(process, n: int) -> np.ndarray:
    """mu(x) for every x of length n, in index order, from the kind's own
    `prob`, which does not use the transfer form."""
    return np.array([process.prob(index_sequence(i, process.L, n))
                     for i in range(process.L ** n)])


def range_basis(p) -> np.ndarray:
    """Orthonormal basis of the range of a projector (columns): the
    eigenvectors with eigenvalue above 1/2."""
    w, v = hermitian_eig(p)
    return v[:, w > 0.5]


def validate_projector(p) -> dict:
    p = _as_matrix(p)
    herm = float(np.max(np.abs(p - p.conj().T)))
    if herm > HERMITIAN_TOL:
        raise errors.ValidationError(f"projector not Hermitian (deviation {herm:.3e})")
    # exported grids are real: square those in real arithmetic
    r = p if p.imag.any() else p.real
    idem = float(np.max(np.abs(r @ r - r)))
    if idem > IDEMPOTENT_TOL:
        raise errors.ValidationError(f"projector not idempotent (deviation {idem:.3e})")
    tr = float(np.trace(p).real)
    rank = round(tr)
    if abs(tr - rank) > 1e-6 or rank < 0:
        raise errors.ValidationError(f"projector trace {tr} is not a nonnegative integer")
    return {"hermiticity": herm, "idempotency": idem, "rank": rank}


def projector_leq(p, q, tol: float = 1e-8) -> bool:
    """True iff range(p) is contained in range(q), up to `tol`."""
    p = _as_matrix(p)
    q = _as_matrix(q)
    if p.shape != q.shape:
        raise errors.ValidationError("projector_leq requires equal dimensions")
    gap = (np.eye(p.shape[0]) - q) @ p
    return float(np.linalg.norm(gap, 2)) <= tol


def forbid(monkeypatch, owner, *names, why="called past the memory budget"):
    """Replace each owner.name by a stub that fails the test with `why`."""
    for name in names:
        def forbidden(*args, name=name, **kwargs):
            raise AssertionError(f"{name} {why}")
        monkeypatch.setattr(owner, name, forbidden)


def export_basis(q, prefix: str) -> str:
    """Export q's B and sidecar; the grids, D^m x D^m cells of text that
    nothing here reads, are left unwritten."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projectors, "_write_grid", lambda path, a: None)
        projectors.export_projector(q, prefix)
    return prefix


class Admitted(Exception):
    pass


def peak(run) -> int:
    """The tracemalloc peak of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def checks(monkeypatch, run) -> list:
    """The working set of every check during run(), each one enforced."""
    seen = []

    def record(nbytes, what):
        seen.append(nbytes)
        errors.check_budget(nbytes, what)

    with monkeypatch.context() as m:
        for module in CHECKED:
            m.setattr(module, "check_budget", record)
        run()
    return seen


def checked_bytes(monkeypatch, run) -> tuple[int, int]:
    """The largest working set any check passed during run(), and run()'s
    tracemalloc peak; run() goes once unmeasured to warm numpy up."""
    run()
    seen = []
    top = peak(lambda: seen.extend(checks(monkeypatch, run)))
    return max(seen), top


def first_check(monkeypatch, run, enforce: bool = False) -> int:
    """The bytes of the first check in run(); run() stops there, before it
    allocates.  With `enforce` that check must pass the budget."""
    def record(nbytes, what):
        if enforce:
            errors.check_budget(nbytes, what)
        raise Admitted(nbytes)

    with monkeypatch.context() as m:
        for module in CHECKED:
            m.setattr(module, "check_budget", record)
        with pytest.raises(Admitted) as admitted:
            run()
    return admitted.value.args[0]


def admitted_bytes(monkeypatch, run) -> int:
    """The working set of the first check in run(), which must pass."""
    return first_check(monkeypatch, run, enforce=True)
