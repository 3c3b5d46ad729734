"""Fixed-rate universal block codes realized as empirical-type codes.

A code over alphabet L with block length n and rate R is the set of the
first 2^floor(nR) sequences under the total order (cyclic k-th-order
empirical conditional entropy ascending, scores within SCORE_TIE_TOL counted
equal, then lexicographic).  A binary k = 0 code is a union of type classes
and is built as one up to block length 64, in time polynomial in n; every
process measures it by one recursion over (ones count, hidden state), with
no marginal and no member list.  Every other code scores all L^n sequences,
with one formula for every k from one count of the cyclic (k+1)-grams,
L^n * L^(k+1) one-byte entries.  The count
grows one site at a time, as a marginal does: each prefix's row is repeated
for the L symbols that extend it, and the gram ending at the new site is the
row index mod L^(k+1); the grams that wrap round the end come from the row
index.  Each term c log2(context count / c) is read from an (n+1) x (n+1)
table, and the order is a stable radix sort of the score clusters.  An
enumeration past the memory budget is a SizeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_budget
from .processes import ClassicalProcess

# guard against float-floor artifacts like 0.7 * 10 -> 6.999...
FLOOR_GUARD = 1e-9
# Scores closer than this are equal: scores that tie in exact arithmetic (a
# sequence and its complement, or permuted type classes) can differ in the
# last bits.
SCORE_TIE_TOL = 1e-9


def code_size(n: int, R: float) -> int:
    return 2 ** int(math.floor(n * R + FLOOR_GUARD))


def _scores_bytes(L: int, n: int, k: int) -> int:
    """Peak bytes of empirical_entropy_scores(L, n, k), and so of a dense
    build_code, over the N = L^n sequences of G = L^(k+1) one-byte gram
    counts (n < 256; a longer enumeration is far past any budget), a
    sequence: the gathered float terms beside the counts, the context counts
    and the sums, or the order after the scores, at most 57 bytes (np.unique's
    copy, permutation, sorted copy, mask, cumsum, inverse and distinct values
    beside the scores).  The wrap-around grams' int64 index, rotation, gram
    and temporaries, 48 bytes beside the counts, stay under both.  On top,
    the G x G identity (for k < n), the (n+1) x (n+1) log table with its
    temporaries and the gather's two 8192-entry intp index buffers."""
    N, G = L ** n, L ** (k + 1)
    eye = G * G if k < n else 0
    return N * max(9 * G + G // L + 8, 57) + eye + 32 * (n + 1) ** 2 + 2 ** 17


def _count_wrapped_grams(counts: np.ndarray, L: int, n: int, k: int) -> None:
    """Add the min(k, n) cyclic (k+1)-grams that wrap round the end to the
    (L^n, G) counts, from each row's index: the gram starting at position s
    is the sequence rotated to start there, read for k + 1 symbols (whole
    turns first when k + 1 >= n)."""
    N, G = counts.shape
    index = np.arange(N)
    flat = counts.reshape(-1)
    turns, rest = divmod(k + 1, n)
    for start in range(max(n - k, 0), n):
        head = L ** (n - start)
        rotated = index % head * (N // head) + index // head
        gram = rotated // L ** (n - rest)
        for turn in range(turns):
            gram += rotated * (L ** rest * N ** turn)
        gram += index * G
        flat[gram] += 1


def empirical_entropy_scores(L: int, n: int, k: int) -> np.ndarray:
    """Cyclic k-th-order empirical conditional entropy, in bits, of every
    sequence of length n over L symbols, in index order (x1 most
    significant).

    One formula for every k (k = 0 has the empty context): the sum over the
    sequence's wrap-around (k+1)-grams of c * log2(context count / c), over
    n.  Wrap-around grams make the score rotation-invariant, so all phases of
    a periodic sequence receive the same score.  Scores that tie in exact
    arithmetic may differ in the last bits; build_code counts scores within
    SCORE_TIE_TOL as equal.  A count past the memory budget raises SizeError
    before anything is allocated.
    """
    N, Lk = L ** n, L ** k
    G = Lk * L
    check_budget(_scores_bytes(L, n, k), f"(k+1)-gram count of {N} x {G} entries")
    # one row of gram counts a prefix, each site appending its symbol as
    # ClassicalProcess.marginal does: the gram ending at the new site is the
    # row index mod G, so from site k + 1 on each block of G rows gains the
    # identity
    counts = np.zeros((1, G), dtype=np.min_scalar_type(n))
    eye = np.eye(G, dtype=counts.dtype) if k < n else None
    for site in range(1, n + 1):
        counts = np.repeat(counts, L, axis=0)
        if site > k:
            counts.reshape(-1, G, G)[...] += eye
    _count_wrapped_grams(counts, L, n, k)
    counts = counts.reshape(N, Lk, L)
    # context counts one symbol at a time: a sum over the short last axis is
    # several times slower
    ctx = counts[:, :, 0].copy()
    for a in range(1, L):
        ctx += counts[:, :, a]
    # c log2(ctx / c) at every (context count, count)
    c = np.arange(n + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.where(c > 0, c * np.log2(c[:, None] / c), 0.0)
    return table[ctx[:, :, None], counts].reshape(N, G).sum(axis=1) / n


def all_sequences(L: int, n: int) -> np.ndarray:
    """All L^n sequences as an (L^n, n) digit matrix, x1 most significant."""
    N = L ** n
    idx = np.arange(N)
    digits = np.empty((N, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        digits[:, pos] = idx % L
        idx = idx // L
    return digits


@dataclass
class BlockCode:
    L: int
    n: int
    R: float
    k: int
    # dense mode
    members: np.ndarray | None = None      # flat sequence indices, code order
    # type-class mode (binary, k = 0)
    full_ones_counts: list = field(default_factory=list)
    boundary_ones_counts: list = field(default_factory=list)
    boundary_take: int = 0
    degenerate: bool = False

    @property
    def size(self) -> int:
        if self.members is not None:
            return int(len(self.members))
        return sum(math.comb(self.n, j) for j in self.full_ones_counts) + self.boundary_take

    @property
    def dense(self) -> bool:
        return self.members is not None

    def member_indices(self) -> np.ndarray:
        """The members' sequence indices: in code order in dense mode; in
        ascending order for a type-class code, from the ones count of every
        index (5 bytes per sequence, 8 per boundary-class sequence and per
        member)."""
        if self.dense:
            return self.members
        n, N = self.n, 2 ** self.n
        boundary_sequences = sum(math.comb(n, j) for j in self.boundary_ones_counts)
        check_budget(5 * N + 8 * (boundary_sequences + self.size),
                     f"members of a type-class code over 2^{n} sequences")
        ones = np.zeros(1, dtype=np.uint8)
        for _ in range(n):
            ones = np.concatenate([ones, ones + 1])
        full = np.zeros(n + 1, dtype=bool)
        full[self.full_ones_counts] = True
        boundary = np.zeros(n + 1, dtype=bool)
        boundary[self.boundary_ones_counts] = True
        keep = full[ones]
        # the boundary classes' lexicographically first sequences
        keep[np.flatnonzero(boundary[ones])[:self.boundary_take]] = True
        return np.flatnonzero(keep)


def build_code(L: int, R: float, n: int, k: int = 0) -> BlockCode:
    if L < 2 or n < 1 or k < 0:
        raise ValidationError(f"a code needs L >= 2, n >= 1, k >= 0; got L = {L}, n = {n}, k = {k}")
    if not (0 < R <= math.log2(L) + FLOOR_GUARD):
        raise ValidationError(f"rate {R} outside (0, log2 {L}]")
    size = code_size(n, R)
    N = L ** n
    if size >= N:
        check_budget(8 * N, f"degenerate code of all {L}^{n} sequences")
        return BlockCode(L, n, R, k, members=np.arange(N), degenerate=True)
    if L == 2 and k == 0 and n <= 64:
        return _build_binary_typeclass(R, n, size)
    check_budget(_scores_bytes(L, n, k), f"enumerating the {L}^{n} sequences at k = {k} "
                 "(the type-class mode needs L = 2, k = 0 and n <= 64)")
    values, inverse = np.unique(empirical_entropy_scores(L, n, k), return_inverse=True)
    cluster = np.concatenate([[0], np.cumsum(np.diff(values) > SCORE_TIE_TOL)])
    # a stable sort of the cluster ids, in the narrowest unsigned type that
    # holds them (numpy radix-sorts 8- and 16-bit keys), breaks ties in
    # index order, which is lexicographic
    cluster = cluster.astype(np.min_scalar_type(cluster[-1]))
    order = np.argsort(cluster[inverse], kind="stable")
    return BlockCode(L, n, R, k, members=order[:size].copy())


def _build_binary_typeclass(R: float, n: int, size: int) -> BlockCode:
    """Whole type-class pairs {g, n - g} by ascending g while they fit, then
    the boundary pair; size < 2^n, so a pair is always left to stop at."""
    full: list[int] = []
    for g in range(n // 2 + 1):
        classes = sorted({g, n - g})
        total = sum(math.comb(n, j) for j in classes)
        if total > size:
            return BlockCode(2, n, R, 0, full_ones_counts=full,
                             boundary_ones_counts=classes, boundary_take=size)
        full.extend(classes)
        size -= total
        if size == 0:
            return BlockCode(2, n, R, 0, full_ones_counts=full)


def code_measure(p: ClassicalProcess, c: BlockCode) -> float:
    """Exact probability mass the process assigns to the code set.

    A dense code sums the marginal over its members.  A type-class code uses
    the hidden-Markov form (initial, T): suffix[t][j] is the mass, by hidden
    state, of the n - t symbols after site t holding j ones, so class j
    weighs initial . suffix[0][j], and the boundary walk carries the walked
    prefix's mass by hidden state.  No sequence is listed."""
    if p.L != c.L:
        raise ValidationError("alphabet size mismatch")
    if c.dense:
        return float(p.marginal(c.n).probs[c.members].sum())
    n, chi = c.n, len(p.initial)
    # the suffix masses beside two steps' products and the site matrices
    check_budget(8 * (n + 2) * (n + 5) * chi + 16 * chi ** 2,
                 f"suffix masses of a type-class code over {n} sites with {chi} hidden states")
    # steps[x] = T[:, :, x].T: masses times steps[x] prepend symbol x, and
    # steps[x] times masses append it
    steps = p.T.transpose(2, 1, 0).copy()
    # row j + 1 of level t is suffix[t][j]; row 0 (j = -1) stays zero, so
    # the shift that adds a 1 is a one-row offset
    levels = np.zeros((n + 1, n + 2, chi))
    levels[n, 1] = 1.0
    after = levels[n]
    for masses in levels[-2::-1]:
        prepended = after @ steps
        np.add(prepended[0, 1:], prepended[1, :-1], out=masses[1:])
        after = masses
    suffix = levels[:, 1:]
    total = p.initial @ suffix[0, c.full_ones_counts].sum(axis=0)
    if c.boundary_take:
        total += _boundary_measure(c, p.initial, steps, suffix)
    return float(total)


def _boundary_measure(c: BlockCode, prefix: np.ndarray, steps: np.ndarray,
                      suffix: np.ndarray) -> float:
    """Measure of the `boundary_take` lexicographically-first sequences in
    the union of the boundary classes, via the unranking walk (no
    enumeration): where the rows still to take cover every completion with a
    0 at position t, that whole 0-subtree is taken and the walk puts a 1;
    otherwise it puts a 0.  `prefix` starts as the initial vector."""
    n, measure, o, remaining = c.n, 0.0, 0, c.boundary_take
    for t in range(n):
        if remaining == 0:
            break
        rest = [j - o for j in c.boundary_ones_counts if j >= o]
        zeros = sum(math.comb(n - t - 1, j) for j in rest)
        zero, one = steps @ prefix
        if zeros <= remaining:
            measure += zero @ suffix[t + 1, rest].sum(axis=0)
            remaining -= zeros
            o += 1
            prefix = one
        else:
            prefix = zero
    return measure


def superblock_code(c: BlockCode, i: int) -> BlockCode:
    """Regroup a length-(i*j) code over L into a length-j code over L^i.  The
    flat member indices are invariant under mixed-radix regrouping, so the
    regrouped code holds member_indices() of either kind of code."""
    if i == 1:
        return c
    if c.n % i != 0:
        raise ValidationError(f"superblock size {i} does not divide length {c.n}")
    return BlockCode(c.L ** i, c.n // i, c.R * i, c.k,
                     members=c.member_indices().copy(), degenerate=c.degenerate)
