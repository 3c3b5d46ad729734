"""Fixed-rate universal block codes realized as empirical-type codes.

A code over alphabet L with block length n and rate R is the set of the
first 2^floor(nR) sequences under the total order (cyclic k-th-order
empirical conditional entropy ascending, scores within SCORE_TIE_TOL counted
equal, then lexicographic).  A binary k = 0 code is a union of type classes
and is built as one up to block length 64, in time polynomial in n; every
process measures it by one recursion over (ones count, hidden state), with
no marginal and no member list.  Every other code is enumerated, with one
formula for every k.  A score depends only on the sequence's cyclic
(k+1)-gram counts, its Markov type, and there are polynomially many types
against L^n sequences, so a recursion over sites keeps one small table of
states (last k symbols, gram counts so far, which fix the first k symbols
too) and one int32 state id a prefix: each site appends every symbol to
every state and merges the candidates whose exact int64 key agrees.  At the
end each state's wrap-around grams come from one representative sequence,
each state is scored once (each term c log2(context count / c) read from an
(n+1) x (n+1) table), and the states' scores fall into clusters.  A
bincount of the sequences' clusters finds the boundary cluster, and only
the at most 2^floor(nR) indices of the clusters before it are sorted; the
boundary cluster's lexicographically first sequences complete the code.
An enumerated code is measured from the two halves of its sequences: one
vector by hidden state for each of the L^(n/2) prefixes and each of the
L^(n - n/2) suffixes, one dot product a member.  No L^n float array or
float sort is formed.  An enumeration or a measure past the memory budget
is a SizeError.
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
# The state recursion merges candidates once a level holds MERGE_FROM
# prefixes (below that a merge costs more than the candidates it saves), and
# only while a state's key fits in MERGED_KEY_CHUNKS int64 chunks: each chunk
# is one more sort of every candidate.  At L = 2 a four-chunk key (k = 4,
# n = 20) still builds faster merged; with seven or more (k >= 5, n = 16 to
# 20) few sequences share a state and the sorts cost more than they save.
MERGE_FROM = 2 ** 8
MERGED_KEY_CHUNKS = 4
# A dense code is measured this many members at a time.
MEASURE_BLOCK = 2 ** 14


def code_size(n: int, R: float) -> int:
    return 2 ** int(math.floor(n * R + FLOOR_GUARD))


def _key_layout(L: int, n: int, k: int) -> tuple[int, int, int] | None:
    """How the exact key of a state splits into int64 chunks of radix-(n+1)
    gram-count digits: (digits in chunk 0, digits in each later chunk,
    chunks).  Chunk 0 is keyed beside the last k symbols (below L^k), every
    later chunk beside the previous chunks' ids (below L^n), so no key
    reaches 2^63.  None where the recursion merges nothing: no two prefixes
    share a state (n <= 2k, see _type_states), or the key needs more than
    MERGED_KEY_CHUNKS chunks."""
    if n <= 2 * k:
        return None

    def digits(room):  # the most count digits below room
        j = 0
        while (n + 1) ** (j + 1) <= room:
            j += 1
        return j

    first, rest = digits(2 ** 63 // L ** k), digits(2 ** 63 // L ** n)
    if rest == 0:  # L^n within a factor n + 1 of 2^63: far past any budget
        return None
    chunks = 1 + -(-max(L ** (k + 1) - first, 0) // rest)
    return (first, rest, chunks) if chunks <= MERGED_KEY_CHUNKS else None


def _scores_bytes(L: int, n: int, k: int) -> int:
    """Peak bytes of empirical_entropy_scores(L, n, k), and so of a dense
    build_code, from the largest number of states each level can hold.

    A state at level s is one (first k, last k symbols, gram counts)
    triple, so level s holds at most L^(2k) pairs of k symbols times the
    counts of s - k grams between them; those are fixed by their
    D = L^(k+1) - L^k + 1 values off a spanning tree of the order-k de
    Bruijn graph (the rest follow from flow conservation), so at most
    C(s - k + D, D) of them.  A merging level of P candidates with C key
    chunks: 8 (C + 10) bytes a candidate (the candidate representatives and
    keys, the last k symbols, the chunk key, and np.unique's copy,
    permutation, sorted copy, mask, cumsum and inverse), 8 (C + 1) a state
    of the level before, and the int32 prefix ids before and after with the
    intp copy of the old ones, 12 + 4 L bytes a prefix of the level before.
    After the last level, S states beside the N = L^n prefix ids: at most
    G + 56 bytes a state (the counts beside the representatives and the
    rotation's int64 temporaries), then 9 G + G / L + 8 (counts, context
    counts, gathered float terms and sums).  Then 20 bytes a sequence (the
    ids, their intp copy and the gathered scores) or, in build_code,
    np.unique over the states' scores, 57 bytes a state beside the ids, and
    then at most 14 bytes a sequence (the sequences' clusters beside the ids
    and their intp copy; then beside bincount's intp copy, or a mask and the
    boundary cluster's indices).  Where no state merges, S = N and nothing
    is gathered.  On top, the (n+1) x (n+1) log table with its temporaries,
    the gather's two 8192-entry intp index buffers and, where states merge,
    the G-entry chunk and weight tables."""
    N, G = L ** n, L ** (k + 1)
    fixed = 32 * (n + 1) ** 2 + 2 ** 17
    scoring = max(G + 56, 9 * G + G // L + 8)
    layout = _key_layout(L, n, k)
    if layout is None:
        return N * max(scoring, 57) + fixed
    chunks, D = layout[2], G - L ** k + 1
    peak, states, prefixes = 0, 1, None
    for site in range(1, n + 1):
        candidates = states * L
        states = candidates
        if site > 2 * k and L ** site >= MERGE_FROM:
            old = 0 if prefixes is None else prefixes
            states = min(candidates, L ** (2 * k) * math.comb(site - k + D, D))
            peak = max(peak, 8 * (chunks + 10) * candidates + 8 * (chunks + 1) * candidates // L
                       + (12 + 4 * L) * old)
            prefixes = L ** site
    gathered = 0 if prefixes is None else N
    return max(peak, 4 * gathered + states * scoring, 20 * gathered + 8 * states,
               4 * gathered + 57 * states) + fixed + 16 * G


def _distinct(tails: np.ndarray, counts: np.ndarray, radices: list) -> tuple:
    """The distinct rows of (tails, count chunks): the index of each
    distinct row's first occurrence, and the distinct row of every row.  One
    np.unique a chunk, each chunk's ids feeding the next chunk's key."""
    key = tails * radices[0] + counts[:, 0]
    for c in range(1, len(radices)):
        key = np.unique(key, return_inverse=True)[1] * radices[c] + counts[:, c]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def _type_states(L: int, n: int, k: int) -> tuple:
    """The state of every sequence of length n, as int32 ids in index order
    (None when every sequence is its own state), and one representative
    sequence index a state.

    A prefix's state is (its last k symbols, the counts of the (k+1)-grams
    inside it).  The grams are a path through the order-k de Bruijn graph,
    so the counts also fix the first k symbols: the one node the path leaves
    once more than it enters, or the last k symbols if there is none.  The
    cyclic grams add the ones that wrap round from the last k symbols to the
    first, so two sequences in one state have the same cyclic gram counts,
    and while a prefix is at most 2k long its state fixes all of it.  Each
    site appends every symbol to every state, and a merging site keeps one
    state for each distinct key of the candidates; the prefix ids follow by
    one gather.  The key is the last k symbols and the gram counts as
    radix-(n+1) digits, split by _key_layout."""
    N, G, Lk = L ** n, L ** (k + 1), L ** k
    layout = _key_layout(L, n, k)
    if layout is None:
        return None, np.arange(N)
    first, rest, chunks = layout
    g = np.arange(G)
    later = np.maximum(g - first, 0)
    chunk = np.where(g < first, 0, 1 + later // rest)
    weight = np.power(n + 1, np.where(g < first, g, later % rest), dtype=np.int64)
    radices = [(n + 1) ** int(j) for j in np.bincount(chunk, minlength=chunks)]
    ids, reps, symbols = None, np.zeros(1, dtype=np.int64), np.arange(L)
    counts = np.zeros((1, chunks), dtype=np.int64)
    for site in range(1, n + 1):
        # candidate i * L + a is state i followed by a
        reps = np.add.outer(reps * L, symbols).ravel()
        counts = np.repeat(counts, L, axis=0)
        if site > k:
            gram = reps % G
            rows = np.arange(0, counts.size, chunks)
            counts.reshape(-1)[rows + np.take(chunk, gram)] += np.take(weight, gram)
        if site > 2 * k and L ** site >= MERGE_FROM:
            kept, inverse = _distinct(reps % Lk, counts, radices)
            reps, counts = reps[kept], counts[kept]
            inverse = inverse.astype(np.int32)
            if ids is not None:
                inverse = np.take(inverse.reshape(-1, L), ids, axis=0).ravel()
            ids = inverse
    return ids, reps


def _gram_counts(reps: np.ndarray, L: int, n: int, k: int) -> np.ndarray:
    """The cyclic (k+1)-gram counts of the sequences with indices `reps`,
    one row each: a gram that does not wrap is read from the index, and the
    gram starting at a later position s is the sequence rotated to start
    there, read for k + 1 symbols (whole turns first when k + 1 >= n).  Rows
    are counted a block of at most 1 MiB of counts at a time, so the n
    scattered increments of a row hit the cache."""
    N, G = L ** n, L ** (k + 1)
    counts = np.zeros((len(reps), G), dtype=np.min_scalar_type(n))
    turns, rest = divmod(k + 1, n)
    step = max(1, 2 ** 20 // G)
    for first in range(0, len(reps), step):
        block = reps[first:first + step]
        flat = counts[first:first + step].reshape(-1)
        rows = np.arange(0, flat.size, G)
        for start in range(n):
            if start + k < n:
                gram = block // L ** (n - start - k - 1) % G
            else:
                head = L ** (n - start)
                rotated = block % head * (N // head) + block // head
                gram = rotated // L ** (n - rest)
                for turn in range(turns):
                    gram += rotated * (L ** rest * N ** turn)
            gram += rows
            flat[gram] += 1
    return counts


def _scores_of_counts(counts: np.ndarray, L: int, n: int, k: int) -> np.ndarray:
    """Each row's sum over its grams of c * log2(context count / c), over n;
    each term read from an (n+1) x (n+1) table."""
    S, Lk = len(counts), L ** k
    counts = counts.reshape(S, Lk, L)
    # context counts one symbol at a time: a sum over the short last axis is
    # several times slower
    ctx = counts[:, :, 0].copy()
    for a in range(1, L):
        ctx += counts[:, :, a]
    c = np.arange(n + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.where(c > 0, c * np.log2(c[:, None] / c), 0.0)
    return table[ctx[:, :, None], counts].reshape(S, Lk * L).sum(axis=1) / n


def _state_scores(L: int, n: int, k: int) -> tuple:
    """The state of every sequence (None: each is its own) and the score of
    every state."""
    ids, reps = _type_states(L, n, k)
    counts = _gram_counts(reps, L, n, k)
    del reps
    return ids, _scores_of_counts(counts, L, n, k)


def empirical_entropy_scores(L: int, n: int, k: int) -> np.ndarray:
    """Cyclic k-th-order empirical conditional entropy, in bits, of every
    sequence of length n over L symbols, in index order (x1 most
    significant).

    One formula for every k (k = 0 has the empty context): the sum over the
    sequence's wrap-around (k+1)-grams of c * log2(context count / c), over
    n.  Wrap-around grams make the score rotation-invariant, so all phases of
    a periodic sequence receive the same score.  Scores that tie in exact
    arithmetic may differ in the last bits; build_code counts scores within
    SCORE_TIE_TOL as equal.  The score depends on the gram counts alone, so
    it is computed once a state (see _type_states).  A recursion past the
    memory budget raises SizeError before anything is allocated.
    """
    check_budget(_scores_bytes(L, n, k), f"scoring the {L}^{n} sequences at k = {k}")
    ids, scores = _state_scores(L, n, k)
    return scores if ids is None else np.take(scores, ids)


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
    ids, scores = _state_scores(L, n, k)
    values, inverse = np.unique(scores, return_inverse=True)
    cluster = np.concatenate([[0], np.cumsum(np.diff(values) > SCORE_TIE_TOL)])
    # the narrowest unsigned type that holds the cluster ids: one byte a
    # sequence up to 256 clusters
    cluster = cluster.astype(np.min_scalar_type(cluster[-1]))[inverse]
    if ids is not None:  # each state's cluster to each sequence's
        cluster = np.take(cluster, ids)
        del ids
    return BlockCode(L, n, R, k, members=_first_members(cluster, size))


def _first_members(cluster: np.ndarray, size: int) -> np.ndarray:
    """The first `size` sequence indices ordered by (cluster, index), where
    size is below the number of sequences: the clusters that fit whole,
    ordered by a stable sort of their at most `size` indices (ties in index
    order, which is lexicographic), then the index-ordered head of the
    boundary cluster, the first one whose running total passes size."""
    boundary = int(np.searchsorted(np.cumsum(np.bincount(cluster)), size, side="right"))
    whole = np.flatnonzero(cluster < boundary)
    whole = whole[np.argsort(cluster[whole], kind="stable")]
    head = np.flatnonzero(cluster == boundary)[:size - len(whole)]
    return np.concatenate([whole, head])


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
    """Exact probability mass the process assigns to the code set, from the
    hidden-Markov form (initial, T); neither kind of code builds a marginal.

    A dense code meets in the middle (see _dense_measure): each member's
    probability is its prefix's row vector by hidden state times its
    suffix's column vector, in O(chi^2 (L^h + L^(n-h)) + chi |code|) for h =
    n // 2.  A type-class code lists no sequence: suffix[t][j] is the mass,
    by hidden state, of the n - t symbols after site t holding j ones, so
    class j weighs initial . suffix[0][j], and the boundary walk carries the
    walked prefix's mass by hidden state."""
    if p.L != c.L:
        raise ValidationError("alphabet size mismatch")
    if c.dense:
        return _dense_measure(p, c)
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


def _dense_measure_bytes(L: int, n: int, chi: int, size: int) -> int:
    """Peak bytes of _dense_measure with h = n // 2 prefix and m = n - h
    suffix sites: the L^h x chi prefix rows (their sweep's last step, L^(h-1)
    rows before L^h, is no larger than the suffix sweep's) held beside
    either the suffix sweep's last step (L^(m-1) rows before, L^m after and
    its transposed copy) or, with the L^m suffix rows, one block of at most
    MEASURE_BLOCK members (their prefix and suffix indices with a product
    of the two, and the two gathered rows, 24 + 16 chi bytes a member); on
    top, the two chi x L chi step matrices."""
    h = n // 2
    m = n - h
    block = min(size, MEASURE_BLOCK) * (24 + 16 * chi)
    return (8 * chi * L ** h + max(8 * chi * (L ** (m - 1) + 2 * L ** m),
                                   8 * chi * L ** m + block) + 16 * chi * chi * L)


def _dense_measure(p: ClassicalProcess, c: BlockCode) -> float:
    """Sum over the members x of left[x // L^m] . right[x mod L^m]: left
    holds initial . T[x_1] ... T[x_h] for every prefix of h = n // 2 sites
    (the process's prefix sweep), right holds T[x_(h+1)] ... T[x_n] . 1 for
    every suffix of the other m sites, grown from the right one prepended
    symbol at a time.  No L^n array is formed; members are taken
    MEASURE_BLOCK at a time."""
    L, n, chi = c.L, c.n, len(p.initial)
    h = n // 2
    tail = L ** (n - h)
    check_budget(_dense_measure_bytes(L, n, chi, c.size),
                 f"measure of a dense code over {L}^{n} sequences with {chi} hidden states")
    left = p.prefixes(h)
    # back[j, (x, i)] = T[i, j, x]: rows times back prepend x to each suffix
    back = p.T.transpose(1, 2, 0).reshape(chi, L * chi)
    right = np.ones((1, chi))
    for _ in range(n - h):
        right = (right @ back).reshape(len(right), L, chi).transpose(1, 0, 2).reshape(-1, chi)
    total = 0.0
    for start in range(0, c.size, MEASURE_BLOCK):
        block = c.members[start:start + MEASURE_BLOCK]
        head = block // tail
        rows = np.take(left, head, axis=0)
        rows *= np.take(right, block - head * tail, axis=0)
        total += rows.sum()
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
