"""Reference computations for checking quclab's outputs, written apart from it.

Nothing here imports quclab.  Every quantity is recomputed from the source
specs the benchmark generates:

* code sets, by enumerating all L^n sequences and ordering them by cyclic
  k-th-order empirical conditional entropy, then lexicographically, with
  equal scores made to tie exactly;
* sequence probabilities of i.i.d., Markov, periodic and mixture processes;
* the unitary-orbit join of a binary code, as the closure of the code span
  under the collective generators J_01 and J_10 (Schur-Weyl: a subspace is
  U^{(x)n}-invariant exactly when it is invariant under the J_ab);
* n-site density matrices, with channels applied by a per-site
  superoperator contraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Scores closer than TIE_TOL are one score; distinct scores must lie at least
# MIN_SCORE_GAP apart, so that the tie rule cannot depend on rounding.
TIE_TOL = 1e-9
MIN_SCORE_GAP = 1e-6
# Singular values below this (relative to the largest) are not new directions.
CLOSURE_RTOL = 1e-10


# ---------------------------------------------------------------- codes

def sequences(L: int, n: int) -> np.ndarray:
    """(L^n, n) digit matrix; row i is i written in base L, x1 first."""
    idx = np.arange(L ** n)
    powers = L ** np.arange(n - 1, -1, -1)
    return (idx[:, None] // powers) % L


def conditional_entropy_scores(digits: np.ndarray, L: int, k: int) -> np.ndarray:
    """Cyclic k-th-order empirical conditional entropy per row, in bits.

    The per-gram terms are summed in sorted order, so two sequences whose
    (count, context count) multisets agree get bit-identical scores.
    """
    N, n = digits.shape
    gram = np.zeros((N, n), dtype=np.int64)
    for j in range(k + 1):
        gram = gram * L + digits[:, (np.arange(n) + j) % n]
    counts = np.stack([(gram == g).sum(axis=1) for g in range(L ** (k + 1))],
                      axis=1).astype(float)
    ctx = np.repeat(counts.reshape(N, L ** k, L).sum(axis=2), L, axis=1)
    ratio = np.where(counts > 0, ctx / np.where(counts > 0, counts, 1.0), 1.0)
    terms = counts * np.log2(ratio)
    return np.sort(terms, axis=1).sum(axis=1) / n


def tie_clusters(scores: np.ndarray) -> np.ndarray:
    """Integer rank of each score's tie cluster.

    Raises if two distinct scores lie closer than MIN_SCORE_GAP, since then
    the clustering would depend on the tolerance.
    """
    values = np.unique(scores)
    gaps = np.diff(values)
    ambiguous = gaps[(gaps > TIE_TOL) & (gaps < MIN_SCORE_GAP)]
    if ambiguous.size:
        raise AssertionError(f"score gap {ambiguous.min():.3e} is neither a tie "
                             f"nor a clear separation")
    cluster_of_value = np.concatenate([[0], np.cumsum(gaps > TIE_TOL)])
    return cluster_of_value[np.searchsorted(values, scores)]


def code_size(n: int, r: float) -> int:
    """2^floor(n r), with r read as the decimal it was written as."""
    return 2 ** math.floor(n * Fraction(str(r)))


def code_members(L: int, n: int, r: float, k: int) -> np.ndarray:
    """Flat indices of the code: the first 2^floor(nr) sequences by
    (score cluster, lexicographic index)."""
    size = code_size(n, r)
    if size >= L ** n:
        return np.arange(L ** n)
    clusters = tie_clusters(conditional_entropy_scores(sequences(L, n), L, k))
    order = np.lexsort((np.arange(L ** n), clusters))
    return np.sort(order[:size])


# ---------------------------------------------------------------- processes

def stationary(P: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eig(P.T)
    pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    return pi / pi.sum()


def sequence_probs(spec: dict, n: int) -> np.ndarray:
    """Probabilities of all L^n sequences under a process spec."""
    kind = spec["kind"]
    if kind == "iid":
        p = np.asarray(spec["probs"], float)
        return np.prod(p[sequences(len(p), n)], axis=1)
    if kind == "markov":
        P = np.asarray(spec["transition"], float)
        digits = sequences(P.shape[0], n)
        probs = stationary(P)[digits[:, 0]]
        for t in range(1, n):
            probs = probs * P[digits[:, t - 1], digits[:, t]]
        return probs
    if kind == "periodic":
        cycle = list(spec["cycle"])
        L = spec.get("alphabet_size", max(cycle) + 1)
        c = len(cycle)
        probs = np.zeros(L ** n)
        for phase in range(c):
            idx = 0
            for t in range(n):
                idx = idx * L + cycle[(phase + t) % c]
            probs[idx] += 1.0 / c
        return probs
    if kind == "mixture":
        return sum(w * sequence_probs(comp, n)
                   for w, comp in zip(spec["weights"], spec["components"]))
    raise ValueError(f"no reference for process kind {kind!r}")


def process_alphabet_size(spec: dict) -> int:
    kind = spec["kind"]
    if kind == "iid":
        return len(spec["probs"])
    if kind == "markov":
        return len(spec["transition"])
    if kind == "periodic":
        return spec.get("alphabet_size", max(spec["cycle"]) + 1)
    return process_alphabet_size(spec["components"][0])


def code_measure(process: dict, n: int, r: float, k: int) -> float:
    L = process_alphabet_size(process)
    return float(sequence_probs(process, n)[code_members(L, n, r, k)].sum())


# ---------------------------------------------------------------- orbit join

def collective_closure(members, n: int) -> np.ndarray:
    """Orthonormal real basis (2^n x rank) of the smallest subspace that holds
    the code span and is invariant under J_01 and J_10.

    Both generators move one unit of Hamming weight, so the closure is built
    one weight space at a time.
    """
    members = np.asarray(members, dtype=np.int64)
    weight = np.array([bin(i).count("1") for i in range(2 ** n)])
    by_weight = [np.flatnonzero(weight == w) for w in range(n + 1)]
    position = np.empty(2 ** n, dtype=np.int64)
    for idx in by_weight:
        position[idx] = np.arange(len(idx))
    # raising[w]: weight w -> w + 1, sets one zero bit (J_10); its transpose is J_01
    raising = []
    for w in range(n):
        m = np.zeros((len(by_weight[w + 1]), len(by_weight[w])))
        for col, x in enumerate(by_weight[w]):
            for b in range(n):
                if not x >> b & 1:
                    m[position[x | 1 << b], col] = 1.0
        raising.append(m)
    blocks = []
    for w in range(n + 1):
        cols = members[weight[members] == w]
        b = np.zeros((len(by_weight[w]), len(cols)))
        b[position[cols], np.arange(len(cols))] = 1.0
        blocks.append(b)

    def orthonormal(cols: np.ndarray) -> np.ndarray:
        if cols.shape[1] == 0:
            return cols
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return u[:, :0]
        return u[:, s > CLOSURE_RTOL * s[0]]

    blocks = [orthonormal(b) for b in blocks]
    while True:
        ranks = [b.shape[1] for b in blocks]
        for w in range(n):
            blocks[w + 1] = orthonormal(np.hstack([blocks[w + 1], raising[w] @ blocks[w]]))
        for w in range(n, 0, -1):
            blocks[w - 1] = orthonormal(np.hstack([blocks[w - 1], raising[w - 1].T @ blocks[w]]))
        if [b.shape[1] for b in blocks] == ranks:
            break
    q = np.zeros((2 ** n, sum(ranks)))
    col = 0
    for w, b in enumerate(blocks):
        q[by_weight[w], col:col + b.shape[1]] = b
        col += b.shape[1]
    return q


# ---------------------------------------------------------------- quantum sources

_PAULI = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]])]


def kraus_operators(spec: dict) -> list:
    name = spec["name"]
    if name == "depolarizing":
        p = float(spec["p"])
        return [math.sqrt(1 - 3 * p / 4) * _PAULI[0]] + [math.sqrt(p / 4) * s for s in _PAULI[1:]]
    if name == "amplitude-damping":
        g = float(spec["gamma"])
        return [np.array([[1, 0], [0, math.sqrt(1 - g)]]), np.array([[0, math.sqrt(g)], [0, 0]])]
    raise ValueError(f"no reference for channel {name!r}")


def superoperator(kraus: list) -> np.ndarray:
    """S[a, a', b, b'] = sum_k A_k[a, b] conj(A_k[a', b'])."""
    return sum(np.einsum("ab,cd->acbd", a, np.conj(a)) for a in kraus)


def apply_per_site(S: np.ndarray, rho: np.ndarray, n: int) -> np.ndarray:
    """Apply the one-site superoperator S at every site of an n-site operator."""
    d = S.shape[0]
    t = rho.reshape((d,) * (2 * n))
    for site in range(n):
        t = np.tensordot(S, t, axes=([2, 3], [site, n + site]))
        t = np.moveaxis(t, [0, 1], [site, n + site])
    return t.reshape(d ** n, d ** n)


def density(spec: dict, n: int) -> np.ndarray:
    """n-site density matrix of a non-diagonal source spec: an i.i.d. state,
    a Markov source on a given alphabet, or either through a channel."""
    kind = spec["kind"]
    if kind == "iid":
        rho1 = np.asarray(spec["rho_re"], complex) + 1j * np.asarray(spec.get("rho_im", 0.0))
        out = np.ones((1, 1), complex)
        for _ in range(n):
            out = np.kron(out, rho1)
        return out
    if kind == "classical":
        process = spec["process"]
        L = process_alphabet_size(process)
        alph = spec["alphabet"]
        vecs = np.asarray(alph["re"], complex) + 1j * np.asarray(alph.get("im", 0.0))
        proj = [np.outer(vecs[:, a], vecs[:, a].conj()) for a in range(L)]
        if process["kind"] != "markov":
            raise ValueError("density reference covers Markov-driven sources only")
        # ending[b]: weight of all sequences ending in symbol b
        P = np.asarray(process["transition"], float)
        ending = [stationary(P)[b] * proj[b] for b in range(L)]
        for _ in range(n - 1):
            ending = [np.kron(sum(P[a, b] * ending[a] for a in range(L)), proj[b])
                      for b in range(L)]
        return sum(ending)
    if kind == "channel-transformed":
        S = superoperator(kraus_operators(spec["channel"]))
        return apply_per_site(S, density(spec["inner"], n), n)
    raise ValueError(f"no reference for source kind {kind!r}")


# ---------------------------------------------------------------- fidelities

def acceptance(q: np.ndarray, rho: np.ndarray) -> float:
    """tr(Q^dagger rho Q)."""
    return float(np.einsum("ik,ij,jk->", q.conj(), rho, q).real)


def c1_fidelity_bounds(q: np.ndarray, rho: np.ndarray) -> tuple[float, float]:
    """[tr(P rho)^2, tr(P rho)^2 + tr(P rho (1-P) rho)] with P = Q Q^dagger.

    Scheme c1's F_e = tr(P rho)^2 + ||(1-P) rho f||^2 lies in this interval for
    every unit flag f in range(P).
    """
    a = acceptance(q, rho)
    rq = rho @ q
    leak = rq - q @ (q.conj().T @ rq)
    return a * a, a * a + float(np.linalg.norm(leak) ** 2)


def c2_fidelity_squared(p: np.ndarray, rho: np.ndarray) -> float:
    """F(rho, P rho P / tr(P rho P))^2 by plain eigendecompositions."""
    proj = p @ rho @ p
    sigma = proj / np.trace(proj).real
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    ev = np.linalg.eigvalsh(root @ sigma @ root)
    return float(np.sqrt(np.clip(ev, 0.0, None)).sum() ** 2)
