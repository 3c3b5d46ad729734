"""Fixed-rate universal block codes, one form for every (L, n, k).

A code over alphabet L with block length n and rate R is the set of the
first 2^floor(nR) sequences under the total order (cyclic k-th-order
empirical conditional entropy ascending, scores within SCORE_TIE_TOL counted
equal, then lexicographic).  A score depends only on the sequence's cyclic
(k+1)-gram counts, its Markov type, and there are polynomially many types
against L^n sequences.  So every code is the type-state graph of its
sequences (see _type_states): a table of the states of the L^h0 prefixes
at the first merging site h0, then one int32 table a site, candidate
(state, symbol) -> next state.  Each final state is scored once and falls
into a score cluster; sequence counts carried forward over the tables, in
exact integers, give the clusters that fit whole and the boundary cluster,
whose `take` lexicographically first sequences complete the code.  An
unranking walk finds those (see _plan) and is stored in the tables.

Every process (initial, T) measures a code by one backward recursion over
the graph, one gather and one matrix product a site, met at h0 by the
process's prefix rows (see code_measure).  Member lists and per-sequence
scores are composed from the tables on demand.  A measure or a member
list past the memory budget is a SizeError before it allocates; a build
checks each step against the states it holds (see _type_states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, check_budget
from .processes import ClassicalProcess

# guard against float-floor artifacts like 0.7 * 10 -> 6.999...
FLOOR_GUARD = 1e-9
# Scores closer than this are equal: scores that tie in exact arithmetic (a
# sequence and its complement, or permuted type classes) can differ in the
# last bits.
SCORE_TIE_TOL = 1e-9
# States merge from the first site whose L^site prefixes reach MERGE_FROM
# (below that a merge costs more than it saves), and only while a key fits
# in MERGED_KEY_CHUNKS int64 chunks, each one more sort of every candidate:
# at L = 2 four chunks (k = 4, n = 20) still build faster merged; with seven
# or more (k >= 5, n = 16 to 20) the sorts cost more than they save.
MERGE_FROM = 2 ** 8
MERGED_KEY_CHUNKS = 4


def code_size(n: int, R: float) -> int:
    return 2 ** int(math.floor(n * R + FLOOR_GUARD))


@lru_cache(maxsize=256)
def _key_layout(L: int, n: int, k: int) -> tuple[int, int, int] | None:
    """How a state's exact key splits into int64 chunks of radix-(n+1)
    gram-count digits: (digits in chunk 0, in each later chunk, chunks).
    Chunk 0 is keyed beside the last k symbols (below L^k), each later one
    beside the previous chunks' ids (below the candidates, at most L^n, and
    int32), so no key reaches 2^63.  None where nothing merges: no two
    prefixes share a state (n <= 2k), or more than MERGED_KEY_CHUNKS."""
    if n <= 2 * k:
        return None

    def digits(room):  # the most count digits below room
        j = 0
        while (n + 1) ** (j + 1) <= room:
            j += 1
        return j

    first, rest = digits(2 ** 63 // L ** k), digits(2 ** 63 // min(L ** n, 2 ** 31))
    chunks = 1 + -(-max(L ** (k + 1) - first, 0) // rest)
    return (first, rest, chunks) if chunks <= MERGED_KEY_CHUNKS else None


def _merge_from(L: int, n: int, k: int) -> int | None:
    """The first merging site h0, or None where no site merges."""
    if _key_layout(L, n, k) is None:
        return None
    return next((s for s in range(2 * k + 1, n + 1) if L ** s >= MERGE_FROM), None)


def _check_graph(nbytes: int, L: int, n: int, k: int) -> None:
    """check_budget of a build step's nbytes, beside the (n+1)^2 log table
    and the G-entry tables."""
    check_budget(nbytes + 32 * (n + 1) ** 2 + 16 * L ** (k + 1),
                 f"the type-state graph of the {L}^{n} sequences at k = {k}")


def _distinct(tails: np.ndarray, counts: np.ndarray, radices: list) -> tuple:
    """The distinct rows of (tails, count chunks): the index of each
    distinct row's first occurrence, and the distinct row of every row.  One
    np.unique a chunk, each chunk's ids feeding the next chunk's key."""
    key = tails * radices[0] + counts[:, 0]
    for c in range(1, len(radices)):
        key = np.unique(key, return_inverse=True)[1] * radices[c] + counts[:, c]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def _prefix_counts(L: int, h: int, k: int) -> tuple:
    """All L^h prefixes of length h as states, in index order: the last and
    the first k symbols of each as integers below L^k (where k > h, those
    of the prefix repeated, as a whole sequence is read cyclically), and
    the counts of the (k+1)-grams inside each."""
    index = np.arange(L ** h)
    turns = -(-k // h)
    repeated = index * sum(L ** (h * t) for t in range(turns))
    counts = np.zeros((L ** h, L ** (k + 1)), dtype=np.min_scalar_type(h))
    grams = index[:, None] // L ** np.arange(max(h - k, 0))[::-1] % L ** (k + 1)
    np.add.at(counts, (index[:, None], grams), 1)
    return repeated % L ** k, repeated // L ** (h * turns - k), counts


# the prefixes at h0, which depends on L and k alone, kept (read only) for
# the next code
_merge_prefixes = lru_cache(maxsize=16)(_prefix_counts)


def _type_states(L: int, n: int, k: int) -> tuple:
    """The type-state graph of the sequences of length n: the int32 state at
    the first merging site h0 of each L^h0 prefix (None where no site
    merges: every sequence is its own state), one int32 table a later site
    (candidate state * L + symbol -> next state), and each final state's
    cyclic (k+1)-gram counts.  A state is (last k symbols, gram counts),
    which fix the first k symbols too (the grams are a path through the
    order-k de Bruijn graph), and all of a prefix up to 2k long.  A merging
    site keeps one state a distinct key (the last k symbols and the counts
    as radix-(n+1) digits, split by _key_layout); the final counts are
    decoded from it, plus the grams that wrap round to the first k.

    Each step is checked against the states it holds.  With no merge, once
    before anything is allocated, for L^n states: 24 (n - k + 1) bytes a
    sequence (index, ends, window grams) beside its c-byte counts of the
    G = L^(k+1) grams; or the scoring, 9 G + G / L + 16 bytes a state, or
    np.unique and the clusters, 57; or _plan's L + 3 exact counts.  With C
    key chunks: the prefix table at h0 and its keys, 8 (C + 16) bytes a
    prefix; before each site, beside the tables so far, 8 (C + 12) bytes a
    candidate and 8 (C + 3) a state; the final states' decoded counts
    beside their keys, or their scoring with the buffers of its gather's
    index iterator (under 256 KiB).  So a merged build past the budget is
    refused at the first site that outgrows it."""
    G, Lk, c = L ** (k + 1), L ** k, 1 if n < 256 else 2
    scoring = max(9 * G + G // L + 16, 57)
    h0 = _merge_from(L, n, k)
    if h0 is None:
        exact = 8 if L ** n < 2 ** 63 else 48
        _check_graph(L ** n * max(24 * (n - k + 1) + c * G, scoring, (L + 3) * exact), L, n, k)
        return None, [], _wrap(*_prefix_counts(L, n, k), L, n, k)
    first, rest, chunks = _key_layout(L, n, k)
    _check_graph((24 * (h0 - k + 1) + c * G + 8 * (chunks + 16)) * L ** h0, L, n, k)
    g = np.arange(G)
    later = np.maximum(g - first, 0)
    chunk = np.where(g < first, 0, 1 + later // rest)
    weight = np.power(n + 1, np.where(g < first, g, later % rest), dtype=np.int64)
    radices = [(n + 1) ** int(j) for j in np.bincount(chunk, minlength=chunks)]
    # gram g adds weight[g] to key chunk chunk[g]
    adds = np.where(chunk[:, None] == np.arange(chunks), weight[:, None], 0)
    tails, heads, counts = _merge_prefixes(L, h0, k)
    keys = counts @ adds
    kept, table = _distinct(tails, keys, radices)
    tails, heads, keys, table = tails[kept], heads[kept], keys[kept], table.astype(np.int32)
    levels, symbols, tables = [], np.arange(L), table.nbytes
    for _ in range(h0, n):
        _check_graph(tables + 8 * ((chunks + 12) * L + chunks + 3) * len(keys), L, n, k)
        # candidate i * L + a is state i followed by a, and its new gram
        grams = np.add.outer(tails * L, symbols).ravel()
        keys = keys[:, None] + np.take(adds, grams, axis=0).reshape(-1, L, chunks)
        keys = keys.reshape(-1, chunks)
        tails = grams % Lk
        kept, inverse = _distinct(tails, keys, radices)
        tails, heads, keys = tails[kept], heads[kept // L], keys[kept]
        levels.append(inverse.astype(np.int32))
        tables += levels[-1].nbytes
    _check_graph(tables + len(keys) * max(c * G + 8 * chunks + 16, scoring) + 2 ** 18,
                 L, n, k)
    counts = np.empty((len(keys), G), dtype=np.min_scalar_type(n))
    for gram in range(G):
        counts[:, gram] = keys[:, chunk[gram]] // weight[gram] % (n + 1)
    return table, levels, _wrap(tails, heads, counts, L, n, k)


def _wrap(tails: np.ndarray, heads: np.ndarray, counts: np.ndarray,
          L: int, n: int, k: int) -> np.ndarray:
    """Add to each row the grams that wrap round the sequence: the windows
    of its last k symbols followed by its first k that start in the last k
    (and, where k > n, only the n that start a turn from the end)."""
    for j in range(max(k - n, 0), k):
        grams = (tails * L ** k + heads) // L ** (k - 1 - j) % L ** (k + 1)
        counts[np.arange(len(counts)), grams] += 1
    return counts


@lru_cache(maxsize=64)
def _log_terms(n: int) -> np.ndarray:
    """The (n+1) x (n+1) table of c * log2(context count / c), 0 at c = 0."""
    c = np.arange(n + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(c > 0, c * np.log2(c[:, None] / c), 0.0)


def _scores_of_counts(counts: np.ndarray, L: int, n: int, k: int) -> np.ndarray:
    """Each row's sum over its grams of c * log2(context count / c), over n;
    each term read from _log_terms."""
    S, Lk = len(counts), L ** k
    counts = counts.reshape(S, Lk, L)
    # context counts one symbol at a time: a sum over the short last axis is
    # several times slower
    ctx = counts[:, :, 0].copy()
    for a in range(1, L):
        ctx += counts[:, :, a]
    return _log_terms(n)[ctx[:, :, None], counts].reshape(S, Lk * L).sum(axis=1) / n


def _sequence_values(values: np.ndarray, L: int, n: int, table: np.ndarray | None,
                     levels: list) -> np.ndarray:
    """values[s] for every sequence's final state s, in index order: the
    prefix table composed with each site's table, the last site's read
    through values, so no state id a sequence is formed.  (A code's last
    table also leads to its path and zero states, which no sequence
    reaches: clipped.)"""
    if table is None:
        return values
    if levels:
        values = np.take(values, levels[-1], mode="clip").reshape(-1, L)
    ids = table
    for inverse in levels[:-1]:
        ids = np.take(inverse.reshape(-1, L), ids, axis=0).ravel()
    return np.take(values, ids, axis=0).ravel()


def empirical_entropy_scores(L: int, n: int, k: int) -> np.ndarray:
    """Cyclic k-th-order empirical conditional entropy, in bits, of every
    sequence of length n over L symbols, in index order (x1 most
    significant).

    One formula for every k (k = 0 has the empty context): the sum over the
    sequence's wrap-around (k+1)-grams of c * log2(context count / c), over
    n.  Wrap-around grams make the score rotation-invariant, so all phases of
    a periodic sequence receive the same score.  Scores that tie in exact
    arithmetic may differ in the last bits; build_code counts scores within
    SCORE_TIE_TOL as equal.  Each state is scored once and its score
    gathered by its sequences.  A gather past the memory budget (the int32
    ids before the last site with their intp copy beside the scores) is a
    SizeError before anything is allocated; the graph checks its own steps.
    """
    check_budget(12 * L ** (n - 1) + 8 * L ** n, f"scoring the {L}^{n} sequences at k = {k}")
    table, levels, counts = _type_states(L, n, k)
    return _sequence_values(_scores_of_counts(counts, L, n, k), L, n, table, levels)


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
    """A code as the type-state graph of its sequences: `table` holds the
    state at site h0 = n - len(levels) of each of the L^h0 prefixes (None:
    no site merges, each sequence is its own final state), and levels[i]
    the state at site h0 + i + 1 of candidate state * L + symbol, then the
    L candidates of the walked path and the L of the zero state, the last
    two states of every site.  `cluster` is each final state's score
    cluster; the code holds the clusters before `boundary` whole, and the
    `take` first sequences of the boundary cluster: those of the first
    `cut` prefixes at h0, then those of the walked path's subtrees."""
    L: int
    n: int
    R: float
    k: int
    table: np.ndarray | None
    levels: list
    cluster: np.ndarray
    boundary: int
    take: int
    cut: int

    @property
    def size(self) -> int:
        return min(code_size(self.n, self.R), self.L ** self.n)

    @property
    def degenerate(self) -> bool:
        return self.size == self.L ** self.n

    def member_indices(self) -> np.ndarray:
        """The members' sequence indices in code order, (cluster, index):
        every sequence's cluster, then _first_members (a bincount's intp
        copy, or a mask and the whole and boundary clusters' indices, at
        most 9 bytes a sequence; the members sorted and joined, 16 each)."""
        L, n, c = self.L, self.n, self.cluster.itemsize
        N = L ** n
        check_budget(max(12 * (N // L) + c * N, (c + 9) * N + 16 * self.size),
                     f"members of a code over {L}^{n} sequences")
        cluster = _sequence_values(self.cluster, L, n, self.table, self.levels)
        return _first_members(cluster, self.size)


def _first_members(cluster: np.ndarray, size: int) -> np.ndarray:
    """The first `size` sequence indices ordered by (cluster, index), where
    size is at most the number of sequences: the clusters that fit whole,
    ordered by a stable sort of their at most `size` indices (ties in index
    order, which is lexicographic), then the index-ordered head of the
    boundary cluster, the first one whose running total passes size."""
    boundary = int(np.searchsorted(np.cumsum(np.bincount(cluster)), size, side="right"))
    whole = np.flatnonzero(cluster < boundary)
    whole = whole[np.argsort(cluster[whole], kind="stable")]
    head = np.flatnonzero(cluster == boundary)[:size - len(whole)]
    return np.concatenate([whole, head])


def build_code(L: int, R: float, n: int, k: int = 0) -> BlockCode:
    if L < 2 or n < 1 or k < 0:
        raise ValidationError(f"a code needs L >= 2, n >= 1, k >= 0; got L = {L}, n = {n}, k = {k}")
    if not (0 < R <= math.log2(L) + FLOOR_GUARD):
        raise ValidationError(f"rate {R} outside (0, log2 {L}]")
    size = min(code_size(n, R), L ** n)
    if size == L ** n:  # every sequence: one state a site, one cluster
        table, cluster = np.zeros(1, np.int32), np.zeros(1, np.uint8)
        levels = [np.zeros(L, np.int32)] * n
    else:
        table, levels, counts = _type_states(L, n, k)
        # cluster of each state: a new one at every gap past SCORE_TIE_TOL
        # between the sorted distinct scores, in the narrowest unsigned type
        values, cluster = np.unique(_scores_of_counts(counts, L, n, k), return_inverse=True)
        del counts
        ids = np.concatenate([[0], np.cumsum(np.diff(values) > SCORE_TIE_TOL)])
        cluster = ids.astype(np.min_scalar_type(ids[-1]))[cluster]
    return BlockCode(L, n, R, k, table, *_plan(L, n, k, size, table, levels, cluster))


def _plan(L: int, n: int, k: int, size: int, table, levels: list, cluster: np.ndarray) -> tuple:
    """The clusters a code holds whole, and the unranking walk of the head
    of its boundary cluster.  Sequence counts carried forward over the
    tables, in exact integers (Python integers from 2^63 sequences), give
    each cluster's size and so the boundary cluster and `take`.  Each
    state's completions into the boundary cluster, carried backward, and
    their running total over the prefixes at h0 give the `cut` prefixes
    the head covers whole; from the next one the walk takes each child
    subtree whose completions still fit and descends into the first that
    does not.  Each table is replaced by itself extended by the walked
    path's row and the zero state's row.  Returns (levels, cluster,
    boundary, take, cut).  Checked first: beside the tables, every site's
    completions and the widest site's counts and spread, one exact count
    each (8 bytes, or 48 for a Python integer and its pointer)."""
    exact = np.int64 if L ** n < 2 ** 63 else object
    states = [len(inverse) // L for inverse in levels] + [len(cluster)]
    tables = sum(a.nbytes for a in [table, *levels] if a is not None)
    width = 8 if exact is np.int64 else 48
    _check_graph(tables + width * (sum(states) + (L + 2) * max(states)), L, n, k)
    count = np.ones(len(cluster), exact) if table is None else np.bincount(table).astype(exact)
    for inverse, after in zip(levels, states[1:]):
        spread = np.zeros(after, exact)
        np.add.at(spread, inverse, np.repeat(count, L))
        count = spread
    totals = np.zeros(int(cluster.max()) + 1, exact)
    np.add.at(totals, cluster, count)
    ends = np.cumsum(totals)
    boundary = int(np.searchsorted(ends, size, side="right"))
    take = size - (int(ends[boundary - 1]) if boundary else 0)
    cut, node = 0, None
    if take:
        completions = [np.where(cluster == boundary, 1, 0).astype(exact)]
        for inverse in reversed(levels):
            completions.insert(0, np.take(completions[0], inverse).reshape(-1, L).sum(axis=1))
        ends = np.cumsum(completions[0] if table is None else np.take(completions[0], table))
        cut = int(np.searchsorted(ends, take, side="right"))
        remaining = take - (int(ends[cut - 1]) if cut else 0)
        node = int(table[cut]) if remaining else None
    for i, (inverse, after) in enumerate(zip(levels, states[1:])):
        rows = np.full(2 * L, after + 1, dtype=np.int32)  # to the zero state
        if node is not None:
            children, node = inverse[node * L:(node + 1) * L], None
            for a, child in enumerate(children):
                if completions[i + 1][child] <= remaining:
                    remaining -= completions[i + 1][child]
                    rows[a] = child
                else:
                    if remaining:
                        rows[a], node = after, int(child)  # the path state
                    break
        levels[i] = np.concatenate([inverse, rows])
    return levels, cluster, boundary, take, cut


def _measure_bytes(c: BlockCode, chi: int) -> int:
    """Peak bytes of code_measure(p, c) for chi hidden states, beside the
    final states' weights, 16 bytes each.  A site of the backward recursion
    holds the vectors after it (16 chi bytes a state), its gathered
    candidates (16 chi bytes each, 16 at the last site's scalar weights)
    with the table's intp copy, and the vectors it makes; then the vectors
    at h0 beside the prefix rows (8 chi (L^h0 + L^(h0-1)) while swept),
    and the met vectors gathered by the table.  With no site after h0,
    the prefix rows of n - 1 sites, then beside those the L^n masses.  On
    top, the step matrix and the end sums, 8 L chi (chi + 1)."""
    L, n = c.L, c.n
    N, P = L ** n, L ** (n - len(c.levels))
    fixed = 16 * (len(c.cluster) + 2) + 8 * L * chi * (chi + 1)
    met = 0 if c.table is None else 8 * P + 16 * P * (chi if c.levels else 1)
    if not c.levels:
        return fixed + 8 * chi * (N // L) + max(8 * chi * (N // L ** 2), 8 * N + met)
    states = [len(inverse) // L for inverse in c.levels]
    peak, after = 0, 0
    for inverse, before in zip(c.levels[::-1], states[::-1]):
        width = 16 * chi if after else 16
        peak = max(peak, after + (width + 8) * len(inverse) + 16 * chi * before)
        after = 16 * chi * before
    return fixed + max(peak, after + 8 * chi * (P + P // L), after + 8 * chi * P + met)


def code_measure(p: ClassicalProcess, c: BlockCode) -> float:
    """Exact probability mass the process assigns to the code, from its
    hidden-Markov form (initial, T), with no marginal and no member list.

    One backward recursion over the code's graph: a final state's two
    vectors by hidden state are its weights (in a whole cluster; in the
    boundary cluster) times the all-ones vector, and a state's are the sum
    over the symbols a of T[:, :, a] times its child's, one gather and one
    matrix product a site; the walked path's state carries its taken
    subtrees' boundary vectors.  At h0 the prefix rows initial . T[x_1] ...
    T[x_h0] meet them: every prefix's whole-cluster vector, the boundary
    vector of the first `cut`, and the path's vector of the next.  With no
    site after h0, the sequences' masses meet the weights."""
    if p.L != c.L:
        raise ValidationError("alphabet size mismatch")
    L, n, chi = c.L, c.n, len(p.initial)
    check_budget(_measure_bytes(c, chi),
                 f"measure of a code over {L}^{n} sequences with {chi} hidden states")
    ends = p.T.sum(axis=1)  # ends[i, a] = T[i, :, a] . 1, the last site
    vectors = np.zeros((2, len(c.cluster) + 2))
    vectors[0, :-2] = c.cluster < c.boundary
    vectors[1, :-2] = c.cluster == c.boundary
    if c.levels:
        # step[(a, j), i] = T[i, j, a]: gathered (symbol, hidden state)
        # vectors times step prepend the symbol
        step = p.T.transpose(2, 1, 0).reshape(L * chi, chi)
        vectors = np.take(vectors, c.levels[-1], axis=1).reshape(2, -1, L) @ ends.T
        for inverse in c.levels[-2::-1]:
            vectors = np.take(vectors, inverse, axis=1).reshape(2, -1, L * chi) @ step
        rows = p.prefixes(n - len(c.levels))
    else:  # the final states meet the sequences' masses
        rows = (p.prefixes(n - 1) @ ends).reshape(-1, 1)
        vectors = vectors[:, :, None]
    met = vectors[:, :-2] if c.table is None else np.take(vectors, c.table, axis=1)
    cut = c.cut
    return float(np.vdot(rows, met[0]) + np.vdot(rows[:cut], met[1, :cut])
                 + rows[cut] @ vectors[1, -2])
