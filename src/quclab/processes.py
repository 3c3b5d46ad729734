"""Finite-alphabet stationary processes with exact marginal evaluation.

Every process is one hidden-Markov form (initial, T), which gives its
marginals, its block regrouping and the quantum sources built on it.  Four
kinds fill that form: i.i.d., finite Markov chains (initialized at their
stationary distribution unless a custom initial vector is requested),
deterministic cycles with a uniform random phase, and convex mixtures
(provided to exercise non-ergodic behavior).  Block regroupings and the
abelian restriction of a quantum source are plain (initial, T) processes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_budget

PROB_TOL = 1e-12


def entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0.0]
    # 0.0 - x, not -x: a point mass has entropy +0.0, not -0.0
    return float(0.0 - np.sum(nz * np.log2(nz)))


@dataclass(frozen=True)
class Distribution:
    """Dense distribution over length-n blocks, flat index base-L (x1 most significant)."""

    L: int
    n: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.L ** self.n,):
            raise ValidationError("distribution shape mismatch")
        if np.any(p < -PROB_TOL):
            raise ValidationError("negative probability")
        if not abs(p.sum() - 1.0) <= 1e-9:  # written so that NaN fails
            raise ValidationError(f"distribution sums to {p.sum()}, not 1")
        object.__setattr__(self, "probs", p)

    def entropy(self) -> float:
        return entropy_bits(self.probs)


class ClassicalProcess:
    """A hidden-Markov process: P(x_1..x_n) is the sum over hidden states
    i_0..i_n of initial[i_0] T[i_0, i_1, x_1] ... T[i_{n-1}, i_n, x_n].

    Every row T[i] sums to 1, so the last hidden state sums out and the
    marginals are consistent.  The kinds below only fill (initial, T) and add
    their own `prob` and entropy rate; `ergodic` is the kind's flag (derived
    from the chain for Markov processes), None where it is not known (block
    regroupings, abelian restrictions).
    """

    ergodic: bool | None = None

    def __init__(self, initial, T):
        self.initial = np.asarray(initial, dtype=float)
        self.T = np.asarray(T, dtype=float)
        chi = len(self.initial)
        if self.initial.ndim != 1 or self.T.ndim != 3 or self.T.shape[:2] != (chi, chi):
            raise ValidationError("transfer tensor must be chi x chi x L")
        if not (abs(self.initial.sum() - 1.0) <= 1e-8
                and np.max(np.abs(self.T.sum(axis=(1, 2)) - 1.0)) <= 1e-8):
            raise ValidationError("initial vector and transfer rows must sum to 1")
        # every measure sums products of these entries; min() allocates no mask
        if min(self.initial.min(), self.T.min()) < -PROB_TOL:
            raise ValidationError("initial vector and transfer tensor have negative entries")
        self.L = self.T.shape[2]

    def prefixes(self, h: int) -> np.ndarray:
        """initial . T[x_1] ... T[x_h] for every prefix of length h, as the
        L^h x chi rows in index order: one left-to-right contraction, each
        site appending its symbol.  Each step holds the rows before and after
        it; the caller checks the memory budget."""
        chi = len(self.initial)
        step = self.T.transpose(0, 2, 1).reshape(chi, self.L * chi)
        x = self.initial[None]
        for _ in range(h):
            x = (x @ step).reshape(-1, chi)
        return x

    def marginal(self, n: int) -> Distribution:
        """The prefixes of length n - 1, closed by the last site, which sums
        out the hidden state.  The last step holds the L^(n-1) x chi
        prefixes and the L^n output with its sign mask."""
        if n < 1:
            raise ValidationError("block length must be >= 1")
        chi = len(self.initial)
        last = 8 * chi * self.L ** (n - 1)
        check_budget(last + max(last // self.L, 9 * self.L ** n),
                     f"marginal over {self.L}^{n} sequences with {chi} hidden states")
        return Distribution(self.L, n, (self.prefixes(n - 1) @ self.T.sum(axis=1)).ravel())

    def block(self, l: int) -> "ClassicalProcess":
        """The process over l-blocks: l site tensors contracted into
        T_l[i, j, (x_1..x_l)], with the same hidden states.  Each einsum
        holds the tensor before and after it and its iteration buffers."""
        if l == 1:
            return self
        chi = len(self.initial)
        check_budget(8 * chi ** 2 * self.L ** (l - 1) * (1 + self.L) + 2 ** 18,
                     f"{l}-block transfer tensor over {self.L}^{l} symbols")
        T = self.T
        for _ in range(l - 1):
            T = np.einsum("ijs,jkx->iksx", T, self.T).reshape(chi, chi, -1)
        return ClassicalProcess(self.initial, T)


def _check_prob_vector(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.any(p < -PROB_TOL):
        raise ValidationError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise ValidationError(f"{name} sums to {p.sum()}, not 1")
    return np.clip(p, 0.0, None)


def _zero_transfer(chi: int, L: int, kind: str) -> np.ndarray:
    """An all-zero chi x chi x L transfer tensor for a kind to fill, checked
    against the memory budget before it is allocated."""
    check_budget(8 * chi * chi * L, f"{kind} transfer tensor of {chi} x {chi} x {L}")
    return np.zeros((chi, chi, L))


class IIDProcess(ClassicalProcess):
    ergodic = True

    def __init__(self, probs):
        self.p = _check_prob_vector(probs, "probability vector")
        super().__init__(np.ones(1), self.p.reshape(1, 1, -1))

    def prob(self, seq) -> float:
        out = 1.0
        for s in seq:
            out *= self.p[int(s)]
        return float(out)

    def entropy_rate(self) -> float:
        return entropy_bits(self.p)


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by a linear solve; a singular system
    (a reducible chain) has no unique solution."""
    L = P.shape[0]
    a = P.T - np.eye(L)
    a[-1, :] = 1.0
    b = np.zeros(L)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise ValidationError("transition matrix has no unique stationary "
                              "distribution; pass an initial distribution") from None
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def _one_closed_class(P: np.ndarray, states: np.ndarray) -> bool:
    """True iff the states in the boolean mask `states` form one closed
    communicating class of the chain P: no step leaves them, and each
    reaches every other through them."""
    if np.any(P[np.ix_(states, ~states)] > 0):
        return False
    reach = (P[np.ix_(states, states)] > 0) | np.eye(int(states.sum()), dtype=bool)
    for _ in range(int(states.sum()).bit_length()):  # paths of length up to 2^steps
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    return bool(reach.all())


class MarkovProcess(ClassicalProcess):
    def __init__(self, transition, initial=None):
        P = np.asarray(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValidationError("transition matrix must be square")
        for row in P:
            _check_prob_vector(row, "transition row")
        self.P = P
        self.L = P.shape[0]
        if initial is None:
            self.pi = stationary_distribution(P)
            self.stationary = True
        else:
            self.pi = _check_prob_vector(initial, "initial distribution")
            if self.pi.shape != (self.L,):
                raise ValidationError(f"initial distribution must have {self.L} entries")
            self.stationary = bool(np.max(np.abs(self.pi @ P - self.pi)) <= 1e-12)
        # the hidden state is the next symbol: emit it, then step the chain
        T = _zero_transfer(self.L, self.L, "Markov")
        T[np.arange(self.L), :, np.arange(self.L)] = P
        super().__init__(self.pi, T)

    def prob(self, seq) -> float:
        seq = [int(s) for s in seq]
        out = self.pi[seq[0]]
        for a, b in zip(seq, seq[1:]):
            out *= self.P[a, b]
        return float(out)

    def entropy_rate(self) -> float:
        if not self.stationary:
            raise ValidationError("entropy rate requires stationary initialization")
        return float(sum(self.pi[i] * entropy_bits(self.P[i]) for i in range(self.L)))

    @property
    def ergodic(self) -> bool:
        """True iff the states in the support of the initial distribution
        form one closed communicating class."""
        return _one_closed_class(self.P, self.pi > 0)


class PeriodicProcess(ClassicalProcess):
    """Deterministic cycle observed from a uniformly random phase."""

    ergodic = True

    def __init__(self, cycle, L=None):
        self.cycle = [int(c) for c in cycle]
        if not self.cycle:
            raise ValidationError("cycle must be nonempty")
        self.L = int(L) if L is not None else max(self.cycle) + 1
        if min(self.cycle) < 0 or max(self.cycle) >= self.L:
            raise ValidationError(f"cycle symbols must lie in 0..{self.L - 1}")
        self.c = len(self.cycle)
        # the hidden state is the position in the cycle
        T = _zero_transfer(self.c, self.L, "periodic")
        T[np.arange(self.c), (np.arange(self.c) + 1) % self.c, self.cycle] = 1.0
        super().__init__(np.full(self.c, 1.0 / self.c), T)

    def _matches(self, seq, ph: int) -> bool:
        return all(int(s) == self.cycle[(ph + t) % self.c] for t, s in enumerate(seq))

    def prob(self, seq) -> float:
        hits = sum(1 for ph in range(self.c) if self._matches(seq, ph))
        return hits / self.c

    def entropy_rate(self) -> float:
        return 0.0


class MixtureProcess(ClassicalProcess):
    """Convex mixture of processes over a common alphabet; non-ergodic a priori."""

    ergodic = False

    def __init__(self, weights, components):
        self.w = _check_prob_vector(weights, "mixture weights")
        self.components = list(components)
        if len(self.w) != len(self.components):
            raise ValidationError("weights / components length mismatch")
        Ls = {c.L for c in self.components}
        if len(Ls) != 1:
            raise ValidationError("mixture components must share the alphabet")
        self.stationary = all(getattr(c, "stationary", True) for c in self.components)
        # block sum of the components' hidden states
        initial = np.concatenate([w * c.initial for w, c in zip(self.w, self.components)])
        T = _zero_transfer(len(initial), Ls.pop(), "mixture")
        start = 0
        for c in self.components:
            stop = start + len(c.initial)
            T[start:stop, start:stop] = c.T
            start = stop
        super().__init__(initial, T)

    def prob(self, seq) -> float:
        return float(sum(w * c.prob(seq) for w, c in zip(self.w, self.components)))

    def entropy_rate(self) -> float:
        warnings.warn("mixture process is non-ergodic; returning the weighted "
                      "average of component entropy rates", stacklevel=2)
        return float(sum(w * c.entropy_rate() for w, c in zip(self.w, self.components)))


@dataclass
class Decomposition:
    """l-ergodic decomposition: uniform mixture of k shift-related components."""

    l: int
    k: int
    components: list = field(default_factory=list)


def _levels(A: np.ndarray, start: int) -> tuple[np.ndarray, int]:
    """Breadth-first levels of the chain A from `start` (-1 where
    unreached) and its period there: the gcd of level[u] + 1 - level[v]
    over the edges u -> v among the reached states."""
    edge = A > 0
    level = np.full(len(A), -1)
    frontier = np.arange(len(A)) == start
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = edge[frontier].any(axis=0) & (level < 0)
        depth += 1
    u, v = np.nonzero(edge & np.outer(level >= 0, level >= 0))
    return level, int(np.gcd.reduce(level[u] + 1 - level[v]))


def ergodic_decomposition_l(p: ClassicalProcess, l: int) -> Decomposition:
    """Split p, from its hidden chain A = sum_x T[:, :, x], into the k =
    gcd(g, l) components of its cyclic classes, g being the period of A
    on the support of `initial`.  Component x is `initial` restricted to
    the states whose breadth-first level is x (mod k), so each has mass
    1/k and component x + 1 is component x shifted by one site.  p must be
    stationary, with a support that is one closed class of A."""
    A = p.T.sum(axis=2)
    support = p.initial > 0
    if np.max(np.abs(p.initial @ A - p.initial)) > 1e-12:
        raise ValidationError("decomposition requires a stationary process")
    if not _one_closed_class(A, support):
        raise ValidationError("decomposition requires the support of the initial "
                              "vector to be one closed class of the hidden chain")
    level, g = _levels(A, int(np.argmax(support)))
    k = math.gcd(g, l)
    if k == 1:
        return Decomposition(l=l, k=1, components=[p])
    # unreached states (level -1) lie outside the support, where initial is 0
    parts = [np.where(level % k == x, p.initial, 0.0) for x in range(k)]
    return Decomposition(l=l, k=k, components=[ClassicalProcess(w / w.sum(), p.T)
                                               for w in parts])


def high_entropy_components(decomposition: Decomposition, s: float, eta: float,
                            block_len: int) -> set:
    """Indices of components whose per-symbol block entropy reaches s + eta."""
    out = set()
    for x, comp in enumerate(decomposition.components):
        h = comp.marginal(block_len).entropy() / block_len
        if h >= s + eta:
            out.add(x)
    return out
