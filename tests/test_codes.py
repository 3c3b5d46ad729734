import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quclab import codes, errors
from quclab.codes import (SCORE_TIE_TOL, all_sequences, build_code, code_measure, code_size,
                          empirical_entropy_scores)
from quclab.errors import SizeError, ValidationError
from quclab.processes import (ClassicalProcess, IIDProcess, MarkovProcess, MixtureProcess,
                              PeriodicProcess)
from cycles import phase_subset
from reference import admitted_bytes, checks, forbid, index_sequence


def brute_order(L, n, k):
    """Independent (score, lex) ordering via per-sequence counting."""
    seqs = list(itertools.product(range(L), repeat=n))
    scored = []
    for seq in seqs:
        counts = {}
        for i in range(n):
            gram = tuple(seq[(i + j) % n] for j in range(k + 1))
            counts[gram] = counts.get(gram, 0) + 1
        ctx = {}
        for gram, c in counts.items():
            ctx[gram[:-1]] = ctx.get(gram[:-1], 0) + c
        h = sum(c * math.log2(ctx[gram[:-1]] / c) for gram, c in counts.items()) / n
        scored.append((h, seq))
    scored.sort(key=lambda t: (round(t[0], 12), t[1]))
    return [s for _, s in scored]


def reference_scores(digits, L, k):
    """The scores from an (N, n) digit matrix: (k+1)-gram codes gathered
    column by column, offset by the row and counted by one bincount, under
    the same float formula as empirical_entropy_scores."""
    N, n = digits.shape
    G = L ** (k + 1)
    gram = np.zeros((N, n), dtype=np.int64)
    for j in range(k + 1):
        gram = gram * L + digits[:, (np.arange(n) + j) % n]
    gram += np.arange(N)[:, None] * G
    counts = np.bincount(gram.ravel(), minlength=N * G).reshape(N, L ** k, L).astype(float)
    ctx = counts.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(counts > 0, counts * np.log2(ctx / counts), 0.0)
    return t.reshape(N, G).sum(axis=1) / n


def reference_clusters(scores):
    """Every index's score cluster: scores sorted, clustered within
    SCORE_TIE_TOL, each score mapped to its cluster by searchsorted."""
    values = np.sort(scores)
    cluster = np.concatenate([[0], np.cumsum(np.diff(values) > SCORE_TIE_TOL)])
    return cluster[np.searchsorted(values, scores)]


def reference_order(scores):
    """Every index in code order: ties in cluster kept in index order by an
    int64 stable argsort."""
    return np.argsort(reference_clusters(scores), kind="stable")


# the (L, n, k) grid on which the scores and the code order are compared with
# the reference: k >= n (every gram wraps, some whole turns), and the state
# keys of more than one int64 chunk (L = 2, k = 4 from n = 9; L = 3, k = 2
# from n = 5)
REFERENCE_GRID = ([(2, n, k) for n in range(1, 17) for k in range(7)]
                  + [(2, n, k) for n in (7, 9) for k in (n, n + 1, n + 3)]
                  + [(3, n, k) for n in range(1, 9) for k in range(4)]
                  + [(4, n, k) for n in range(1, 7) for k in range(3)])


def assert_matches_the_reference(L, n, k):
    """Scores, and the members of the largest code short of every sequence
    in code order, equal to the digit-matrix reference."""
    scores = empirical_entropy_scores(L, n, k)
    assert np.array_equal(scores, reference_scores(all_sequences(L, n), L, k)), (L, n, k)
    bits = math.ceil(n * math.log2(L)) - 1
    if bits == 0:
        return
    c = build_code(L, bits / n, n, k)
    assert c.size == 2 ** bits < L ** n
    assert np.array_equal(c.member_indices(), reference_order(scores)[:c.size]), (L, n, k)


def member_strings(c):
    """The members as sorted digit strings."""
    return sorted("".join(str(d) for d in index_sequence(int(i), c.L, c.n))
                  for i in c.member_indices())


def test_code_size_floor_guard():
    assert code_size(10, 0.7) == 2 ** 7
    assert code_size(3, 2 / 3) == 4


def test_build_code_full_rate():
    c = build_code(2, 1.0, 3, 0)
    assert c.degenerate and c.size == 8


def test_build_code_spec_example():
    c = build_code(2, 2 / 3, 3, 0)
    assert c.size == 4
    assert member_strings(c) == ["000", "001", "010", "111"]


def test_build_code_matches_bruteforce_order():
    for L, n, k in [(2, 5, 0), (2, 6, 1), (3, 4, 0), (2, 5, 2)]:
        c = build_code(L, 0.75 * math.log2(L), n, k)
        expect = brute_order(L, n, k)[:c.size]
        got = {index_sequence(int(i), L, n) for i in c.member_indices()}
        assert got == set(expect)


def test_periodic_k1_measure_one():
    p = PeriodicProcess([0, 1])
    c = build_code(2, 0.5, 4, 1)
    assert code_measure(p, c) == 1.0
    assert member_strings(c) == ["0000", "0101", "1010", "1111"]


def test_code_measure_full_code():
    c = build_code(2, 1.0, 4, 0)
    assert code_measure(IIDProcess([0.3, 0.7]), c) == pytest.approx(1.0, abs=1e-15)


def test_code_measure_binomial_oracle_dense():
    # Bernoulli(0.9), n=10, R=0.8: exact binomial-tail arithmetic in Fractions
    c = build_code(2, 0.8, 10, 0)
    p0, p1 = Fraction(9, 10), Fraction(1, 10)
    oracle = Fraction(0)
    ordered = sorted(range(2 ** 10),
                     key=lambda i: (min(bin(i).count("1"), 10 - bin(i).count("1")), i))
    for i in ordered[:c.size]:
        j = bin(i).count("1")
        oracle += p1 ** j * p0 ** (10 - j)
    assert abs(code_measure(IIDProcess([0.9, 0.1]), c) - float(oracle)) < 1e-12


def _typeclass_measure_oracle(n, R, p0f, p1f):
    """Fraction-exact measure of the lex-first 2^floor(nR) sequences under the
    (type entropy, lex) order, computed recursively without enumeration."""
    size = code_size(n, R)
    p0, p1 = Fraction(p0f).limit_denominator(10 ** 6), Fraction(p1f).limit_denominator(10 ** 6)
    total = Fraction(0)
    remaining = size

    def class_prefix_measure(ones_counts, take):
        # measure of the lex-first `take` members of the class union
        acc = Fraction(0)
        o, t = 0, 0
        left = take
        while left > 0 and t < n:
            advanced = False
            for s in (0, 1):
                cnt = sum(math.comb(n - t - 1, j - o - s)
                          for j in ones_counts if j - o - s >= 0)
                if cnt <= left:
                    for j in ones_counts:
                        if j - o - s >= 0:
                            acc += math.comb(n - t - 1, j - o - s) * p1 ** j * p0 ** (n - j)
                    left -= cnt
                    if s == 1:
                        o, t = o + 1, t + 1
                        advanced = True
                else:
                    o, t = o + s, t + 1
                    advanced = True
                    break
            if not advanced:
                break
        return acc

    for g in range(n // 2 + 1):
        classes = sorted({g, n - g})
        csize = sum(math.comb(n, j) for j in classes)
        if csize <= remaining:
            for j in classes:
                total += math.comb(n, j) * p1 ** j * p0 ** (n - j)
            remaining -= csize
            if remaining == 0:
                break
        else:
            total += class_prefix_measure(classes, remaining)
            break
    return float(total)


def _oracle_members(n, size):
    """The first `size` indices of the 2^n binary sequences ordered by
    (min(ones, zeros), index), enumerated."""
    ones = np.array([bin(i).count("1") for i in range(2 ** n)])
    return np.lexsort((np.arange(2 ** n), np.minimum(ones, n - ones)))[:size]


def test_typeclass_code_matches_enumeration():
    # a binary k = 0 code is a union of type classes; its members are the
    # enumeration oracle's, in its order, and it measures every process, not
    # only i.i.d. ones
    proc = IIDProcess([0.85, 0.15])
    markov = MarkovProcess([[0.9, 0.1], [0.3, 0.7]])
    for n in (8, 12, 16):
        c = build_code(2, 0.6, n, 0)
        oracle = _oracle_members(n, code_size(n, 0.6))
        assert np.array_equal(c.member_indices(), oracle)
        for p in (proc, markov):
            assert abs(code_measure(p, c) - p.marginal(n).probs[oracle].sum()) < 1e-12


# every kind fills the hidden-Markov form the measure runs on:
# a non-stationary initial vector, restricted phases and a raw chi = 3 form
_RAW_T = np.random.default_rng(7).dirichlet(np.ones(6), size=3).reshape(3, 3, 2)
MEASURED_PROCESSES = {
    "iid": IIDProcess([0.85, 0.15]),
    "markov": MarkovProcess([[0.7, 0.3], [0.4, 0.6]], initial=[0.95, 0.05]),
    "periodic": phase_subset([0, 1, 1, 0, 1, 0, 0], [1, 4]),
    "mixture": MixtureProcess([0.3, 0.7], [IIDProcess([0.9, 0.1]),
                                           MarkovProcess([[0.6, 0.4], [0.1, 0.9]])]),
    "raw": ClassicalProcess([0.2, 0.5, 0.3], _RAW_T),
}
# each side rounds a sum of at most 2^16 terms of at most 1, n <= 16 steps
# deep: 32 ulps of 1 bound both
MEASURE_TOL = 32 * np.finfo(float).eps


@pytest.mark.parametrize("kind", MEASURED_PROCESSES)
def test_typeclass_measure_matches_the_marginal_sum(kind):
    p = MEASURED_PROCESSES[kind]
    for n in range(1, 17):
        probs = p.marginal(n).probs
        for R in [x / 20 for x in range(1, 20)]:
            c = build_code(2, R, n, 0)
            assert abs(code_measure(p, c) - probs[c.member_indices()].sum()) <= MEASURE_TOL


@st.composite
def hidden_markov_cases(draw):
    chi = draw(st.integers(1, 4))
    n = draw(st.integers(1, 14))
    R = draw(st.integers(1, 19)) / 20
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # sparse forms too: a zero entry is a forbidden step
    T = rng.dirichlet(np.ones(2 * chi), size=chi) * (rng.random((chi, 2 * chi)) < 0.8)
    T[:, 0] += T.sum(axis=1) == 0
    T /= T.sum(axis=1, keepdims=True)
    return ClassicalProcess(rng.dirichlet(np.ones(chi)), T.reshape(chi, chi, 2)), n, R


@given(hidden_markov_cases())
def test_typeclass_measure_matches_the_marginal_sum_at_random_forms(case):
    p, n, R = case
    c = build_code(2, R, n, 0)
    expected = p.marginal(n).probs[c.member_indices()].sum()
    assert abs(code_measure(p, c) - expected) <= MEASURE_TOL


def test_typeclass_measure_lists_no_sequence(monkeypatch):
    # no marginal and no member list, so past n = 27 too, and past the
    # 2^63 sequences of n = 64
    for owner, name in ((ClassicalProcess, "marginal"), (codes.BlockCode, "member_indices")):
        forbid(monkeypatch, owner, name, why="called to measure a binary k = 0 code")
    for p in MEASURED_PROCESSES.values():
        for n in (12, 40, 64):
            c = build_code(2, 0.5, n)
            assert 0 <= code_measure(p, c) <= 1


def test_typeclass_measure_oracle_large_n():
    proc = IIDProcess([0.9, 0.1])
    for n in (20, 40, 60):
        c = build_code(2, 0.8, n, 0)
        assert abs(code_measure(proc, c) - _typeclass_measure_oracle(n, 0.8, 0.9, 0.1)) < 1e-12
    # every boundary for n = 2..14 against the enumeration oracle, summed
    # exactly
    p0, p1 = Fraction(9, 10), Fraction(1, 10)
    boundaries = 0
    for n in range(2, 15):
        for R in [x / 100 for x in range(5, 96, 5)]:
            c = build_code(2, R, n, 0)
            if c.degenerate:
                continue
            boundaries += c.take > 0
            oracle = _oracle_members(n, c.size)
            taken = np.bincount([bin(i).count("1") for i in oracle], minlength=n + 1)
            exact = sum(int(taken[j]) * p1 ** j * p0 ** (n - j) for j in range(n + 1))
            assert abs(code_measure(proc, c) - float(exact)) < 1e-12
    assert boundaries > 100


def test_binary_k0_codes_are_typeclass_codes_up_to_n64():
    # from the first merging site on, a binary k = 0 state is a ones count:
    # n + 1 final states, the type classes, scored once each
    for n in range(1, 65):
        for R in (0.3, 0.5, 0.9):
            c = build_code(2, R, n, 0)
            assert c.degenerate or c.table is None or len(c.cluster) == n + 1


def test_universality_curve():
    proc = IIDProcess([0.9, 0.1])
    vals = {n: code_measure(proc, build_code(2, 0.8, n, 0)) for n in range(10, 61, 10)}
    for n in range(20, 61, 10):
        assert vals[n] >= vals[n - 10]
    assert vals[60] >= 0.99


def test_converse_fair_coin():
    proc = IIDProcess([0.5, 0.5])
    for n in (10, 20, 40):
        c = build_code(2, 0.8, n, 0)
        assert code_measure(proc, c) <= 2.0 ** (math.floor(n * 0.8) - n) + 1e-15


def test_code_size_law():
    for L, R, n, k in [(2, 0.7, 9, 0), (3, 1.2, 4, 1), (4, 1.5, 3, 0)]:
        c = build_code(L, R, n, k)
        if not c.degenerate:
            assert c.size == code_size(n, R)


def test_superblock_contains_low_entropy_core():
    # classical inclusion at the smallest instance: L=2, i=2, j=2, R=1/2; a
    # length-4 binary code read as a length-2 code over 4 symbols keeps its
    # flat indices
    c = build_code(2, 0.5, 4, 1)
    regrouped = set(int(i) for i in c.member_indices())
    direct = build_code(4, 1.0, 2, 0)
    # the regrouped set should contain the zero-entropy (constant-pair) core
    core = {int(i) for i in direct.member_indices()
            if len(set(divmod(int(i), 4))) == 1}
    assert core <= regrouped


def test_scores_rotation_invariant():
    seqs = all_sequences(2, 6)
    scores = empirical_entropy_scores(2, 6, 1)
    for i in (5, 11, 23):
        seq = seqs[i]
        rot = np.roll(seq, 2)
        j = int("".join(map(str, rot)), 2)
        assert abs(scores[i] - scores[j]) < 1e-12


def test_scores_and_code_order_match_the_digit_matrix_reference():
    for L, n, k in REFERENCE_GRID:
        assert_matches_the_reference(L, n, k)


@pytest.mark.parametrize("L, n, k, chunks", [(2, 11, 3, 1), (2, 12, 3, 1), (2, 13, 3, 2),
                                             (2, 14, 3, 2), (2, 14, 4, 3), (5, 6, 1, 2),
                                             (8, 5, 1, 4)])
def test_state_keys_of_one_to_four_chunks_match_the_digit_matrix_reference(L, n, k, chunks):
    # past one int64 chunk, each chunk's ids feed the next chunk's key
    assert codes._key_layout(L, n, k)[2] == chunks
    assert_matches_the_reference(L, n, k)


@st.composite
def score_cases(draw):
    """(L, n, k) with k up to n + 2 and at most 2^20 gram counts."""
    L = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 14, 3: 7, 4: 6}[L]))
    k = draw(st.integers(0, max(k for k in range(n + 3) if L ** (n + k + 1) <= 2 ** 20)))
    return L, n, k


@given(score_cases())
def test_scores_match_the_digit_matrix_reference_at_random_sizes(case):
    # k >= n included: every gram then wraps round the sequence at least once
    assert_matches_the_reference(*case)


@pytest.mark.parametrize("L, n, k", [(2, 12, 1), (2, 11, 2), (2, 12, 3), (3, 7, 1), (4, 5, 0),
                                     (2, 9, 4), (5, 6, 1)])
def test_type_states_are_the_distinct_tails_and_counts(L, n, k):
    # sequences share a final state exactly when they share their last k
    # symbols and the counts of the (k+1)-grams that do not wrap, and those
    # fix the first k symbols too; each final state's counts are the cyclic
    # counts of its sequences
    table, levels, final = codes._type_states(L, n, k)
    ids = codes._sequence_values(np.arange(len(final)), L, n, table, levels)
    digits, G = all_sequences(L, n), L ** (k + 1)
    gram = np.zeros((L ** n, n - k), dtype=np.int64)
    for j in range(k + 1):
        gram = gram * L + digits[:, j:n - k + j]
    counts = np.zeros((L ** n, G), dtype=np.int64)
    np.add.at(counts, (np.arange(L ** n)[:, None], gram), 1)
    index = np.arange(L ** n)
    rows = np.column_stack([index % L ** k, counts])
    distinct = np.unique(rows, axis=0)
    assert len(final) == len(distinct) == len(np.unique(ids))
    assert len(np.unique(np.column_stack([ids, rows]), axis=0)) == len(distinct)
    with_heads = np.column_stack([index // L ** (n - k), rows])
    assert len(np.unique(with_heads, axis=0)) == len(distinct)
    cyclic = np.zeros((L ** n, n), dtype=np.int64)
    for j in range(k + 1):
        cyclic = cyclic * L + digits[:, (np.arange(n) + j) % n]
    expected = np.zeros((L ** n, G), dtype=np.int64)
    np.add.at(expected, (index[:, None], cyclic), 1)
    assert np.array_equal(final[ids], expected)


def test_k1_enumeration_holds_no_float_a_sequence():
    # the scores are computed once a state and the build holds nothing a
    # sequence, only its type-state graph; the int32 prefix ids with the
    # sequences' one-byte clusters took 13 bytes a sequence under
    # tracemalloc, a stable sort of every sequence 17, and a float score or
    # gram count a sequence 49
    build_code(2, 0.6, 18, 1)
    tracemalloc.start()
    try:
        build_code(2, 0.6, 18, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 18


def test_dense_members_do_not_hold_the_whole_order():
    # the member list keeps its 2^7 members, not a view of an order of all
    # 2^12 sequences, and the code itself holds less than one int32 a
    # sequence
    c = build_code(2, 0.6, 12, 1)
    members = c.member_indices()
    assert c.size == len(members) == 2 ** 7
    assert members.base is None
    held = c.table.nbytes + sum(t.nbytes for t in c.levels) + c.cluster.nbytes
    assert held < 4 * 2 ** 12


def test_code_measure_markov():
    mk = MarkovProcess([[0.95, 0.05], [0.3, 0.7]])
    c = build_code(2, 0.7, 8, 1)
    mu = mk.marginal(8).probs
    assert abs(code_measure(mk, c) - mu[c.member_indices()].sum()) < 1e-15


# the measure's processes over two and three symbols: a chain with a
# non-stationary initial vector, a cycle, a mixture and raw chi = 3 forms
_RAW_T3 = np.random.default_rng(11).dirichlet(np.ones(9), size=3).reshape(3, 3, 3)
DENSE_MEASURED = {
    (2, "markov"): MarkovProcess([[0.7, 0.3], [0.4, 0.6]], initial=[0.95, 0.05]),
    (2, "periodic"): PeriodicProcess([0, 1, 1, 0, 1]),
    (2, "mixture"): MixtureProcess([0.3, 0.7], [PeriodicProcess([1, 1, 0]),
                                                MarkovProcess([[0.6, 0.4], [0.1, 0.9]])]),
    (2, "raw"): ClassicalProcess([0.2, 0.5, 0.3], _RAW_T),
    (3, "markov"): MarkovProcess([[0.7, 0.2, 0.1], [0.3, 0.3, 0.4], [0.05, 0.15, 0.8]]),
    (3, "periodic"): PeriodicProcess([0, 2, 2, 1, 0]),
    (3, "mixture"): MixtureProcess([0.6, 0.4], [PeriodicProcess([2, 0, 1, 1]),
                                                IIDProcess([0.5, 0.3, 0.2])]),
    (3, "raw"): ClassicalProcess([0.1, 0.6, 0.3], _RAW_T3),
}


def exact_measure(p, members, n):
    """The sum over the members of initial . T[x_1] ... T[x_n] . 1 in
    rational arithmetic on the process's float entries, each prefix's row
    vector computed once."""
    chi = len(p.initial)
    T = [[[Fraction(float(p.T[i, j, x])) for j in range(chi)] for i in range(chi)]
         for x in range(p.L)]
    rows = {(): [Fraction(float(w)) for w in p.initial]}

    def row(prefix):
        if prefix not in rows:
            v, x = row(prefix[:-1]), prefix[-1]
            rows[prefix] = [sum(v[i] * T[x][i][j] for i in range(chi)) for j in range(chi)]
        return rows[prefix]

    return sum(sum(row(index_sequence(int(i), p.L, n))) for i in members)


@pytest.mark.parametrize("L, kind", DENSE_MEASURED)
def test_dense_measure_matches_the_rational_oracle(L, kind, monkeypatch):
    # n = 1 (no prefix site), codes where no site merges, where only the
    # last one does (L = 3, n = 6, k = 0) and where several do (n = 9); R =
    # log2 L is the degenerate code of every sequence, of measure 1
    forbid(monkeypatch, ClassicalProcess, "marginal", why="built to measure a code")
    p = DENSE_MEASURED[L, kind]
    for n in (1, 4, 6) if L == 3 else (1, 6, 9):
        for k in range(3):
            for R in (0.6 * math.log2(L), math.log2(L)):
                c = build_code(L, R, n, k)
                exact = exact_measure(p, c.member_indices(), n)
                assert abs(code_measure(p, c) - float(exact)) <= 1e-14, (n, k, R)
                if c.degenerate:
                    assert abs(code_measure(p, c) - 1.0) <= 1e-14


@pytest.mark.parametrize("L, n, k", [(2, 10, 1), (2, 9, 2), (2, 11, 3), (3, 6, 1), (3, 5, 0),
                                     (4, 4, 1)])
def test_first_members_match_a_full_stable_sort(L, n, k):
    # every code size short of every sequence, so the boundary falls in the
    # first cluster, exactly at each cluster's end, and inside clusters of
    # several states (each sequence its own state where none merge); the
    # clusters are one byte a sequence, as build_code holds them
    scores = empirical_entropy_scores(L, n, k)
    cluster = reference_clusters(scores).astype(np.uint8)
    table, levels, final = codes._type_states(L, n, k)
    states = codes._sequence_values(np.arange(len(final)), L, n, table, levels)
    order = reference_order(scores)
    ends = np.cumsum(np.bincount(cluster))
    seen = set()
    for size in range(1, L ** n):
        assert np.array_equal(codes._first_members(cluster, size), order[:size]), size
        boundary = np.searchsorted(ends, size, side="right")
        if boundary == 0:
            seen.add("first")
        elif size == ends[boundary - 1]:
            seen.add("end")
        elif len(np.unique(states[cluster == boundary])) > 1:
            seen.add("several states")
    assert seen == {"first", "end", "several states"}


def exact_order_key(seq, L, k):
    """Exact stand-in for the k-th-order score: n * score = log2 of
    prod (ctx / c)^c over the cyclic (k+1)-grams, so the product orders
    sequences exactly as the score does, with exact ties."""
    n = len(seq)
    counts = {}
    for i in range(n):
        gram = tuple(seq[(i + j) % n] for j in range(k + 1))
        counts[gram] = counts.get(gram, 0) + 1
    ctx = {}
    for gram, c in counts.items():
        ctx[gram[:-1]] = ctx.get(gram[:-1], 0) + c
    key = Fraction(1)
    for gram, c in counts.items():
        key *= Fraction(ctx[gram[:-1]], c) ** c
    return key


@pytest.mark.parametrize("L, n, k, R", [(2, 10, 1, 0.8), (2, 8, 1, 0.7), (2, 12, 1, 0.6),
                                        (3, 6, 1, 1.2), (2, 10, 2, 0.7), (3, 6, 0, 1.2),
                                        (4, 4, 0, 1.5), (3, 7, 0, 0.9), (3, 5, 0, 1.4),
                                        (4, 5, 0, 1.6)])
def test_build_code_exact_ties(L, n, k, R):
    # a k >= 1 sequence and its complement tie exactly, and so do permuted
    # type classes at k = 0; the lexicographic tie-break must decide between
    # them, not rounding in the score (the last two k = 0 cases need the
    # SCORE_TIE_TOL clustering: their tied scores differ in the last bits)
    size = 2 ** math.floor(n * Fraction(str(R)))
    seqs = list(itertools.product(range(L), repeat=n))
    order = sorted(range(L ** n), key=lambda i: (exact_order_key(seqs[i], L, k), i))
    assert sorted(build_code(L, R, n, k).member_indices().tolist()) == sorted(order[:size])


@st.composite
def code_cases(draw):
    """Small (L, n, k, R) with R = b / n for b >= 1 bits, degenerate codes
    (2^b >= L^n) included."""
    L = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 10, 3: 6, 4: 5}[L]))
    k = draw(st.integers(0, n + 1))
    b = draw(st.integers(1, math.floor(n * math.log2(L))))
    return L, n, k, b


@given(code_cases())
def test_code_is_a_prefix_of_the_exact_order(case):
    L, n, k, b = case
    seqs = list(itertools.product(range(L), repeat=n))
    order = sorted(range(L ** n), key=lambda i: (exact_order_key(seqs[i], L, k), i))
    c = build_code(L, b / n, n, k)
    assert set(c.member_indices().tolist()) == set(order[:2 ** b])


@st.composite
def measured_code_cases(draw):
    """A random hidden-Markov form with chi <= 3 hidden states over L <= 3
    symbols (a zero entry is a forbidden step), and a code of it at n <= 7,
    k <= 2 and R = b / n for b >= 1 bits, degenerate codes included."""
    L, chi = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    n, k = draw(st.integers(1, 7)), draw(st.integers(0, 2))
    b = draw(st.integers(1, math.floor(n * math.log2(L))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    T = rng.dirichlet(np.ones(L * chi), size=chi) * (rng.random((chi, L * chi)) < 0.8)
    T[:, 0] += T.sum(axis=1) == 0
    T /= T.sum(axis=1, keepdims=True)
    return ClassicalProcess(rng.dirichlet(np.ones(chi)), T.reshape(chi, chi, L)), n, k, b


@given(measured_code_cases())
def test_members_and_measure_match_the_brute_force_order_and_the_rational_oracle(case):
    # one code form for every (L, n, k): the members are the head of the
    # exact (score, index) order, in that order, and the measure is the
    # rational sum over them; the code of every sequence, one cluster with
    # no scores, lists them in index order and measures 1
    p, n, k, b = case
    L = p.L
    c = build_code(L, b / n, n, k)
    seqs = list(itertools.product(range(L), repeat=n))
    order = sorted(range(L ** n), key=lambda i: (exact_order_key(seqs[i], L, k), i))
    members = c.member_indices()
    assert np.array_equal(members, np.arange(L ** n) if c.degenerate else order[:c.size])
    measure = code_measure(p, c)
    assert abs(measure - float(exact_measure(p, members, n))) <= 1e-14
    if c.degenerate:
        assert abs(measure - 1.0) <= 1e-14


@pytest.mark.parametrize("L, n, k", [(1, 3, 0), (0, 3, 0), (2, 0, 0), (2, -1, 0),
                                     (2, 3, -1)])
def test_build_code_rejects_bad_parameters(L, n, k):
    with pytest.raises(ValidationError, match="a code needs"):
        build_code(L, 0.5, n, k)


def test_degenerate_code_enumerates_nothing(monkeypatch):
    # the full-rate code is one state a site and one cluster, with no
    # sequence enumerated or scored, at n = 40 too; it measures 1 and lists
    # every index.  A code short of every sequence trips the same guards
    forbid(monkeypatch, codes, "_prefix_counts", "_scores_of_counts", why="sequences enumerated")
    for n in (20, 40):
        c = build_code(2, 1.0, n, 3)
        assert c.degenerate and c.size == 2 ** n and len(c.cluster) == 1
        assert abs(code_measure(MEASURED_PROCESSES["mixture"], c) - 1.0) <= 1e-14
    assert np.array_equal(build_code(2, 1.0, 20, 0).member_indices(), np.arange(2 ** 20))
    with pytest.raises(AssertionError, match="sequences enumerated"):
        build_code(2, 0.5, 4, 1)


def test_gram_count_past_the_cap_is_refused_before_allocation(monkeypatch):
    # k = 12 at n = 16 needs 2^16 x 2^13 counts (512 MiB as bytes, 4.8 GiB
    # with the gathered float terms); the check comes before the count rows
    # exist
    forbid(monkeypatch, np, "zeros", "repeat", why="allocation called")
    with pytest.raises(SizeError, match=r"type-state graph of the 2\^16 sequences.*memory budget"):
        build_code(2, 0.5, 16, 12)


def test_gram_count_cap_admits_k7_at_n20(monkeypatch):
    # L = 2, n = 20 stays buildable up to k = 7 and is refused from k = 8
    # on (4881 MiB), as before: from k = 5 a state's key takes more than
    # four chunks, so every sequence is its own state and the peak is the
    # 2^28 gathered float terms beside the byte counts, the context counts,
    # the sums and the scores (2448 MiB), plus the log table and the chunk
    # and weight tables; checked by formula, without building
    assert admitted_bytes(monkeypatch, lambda: build_code(2, 0.5, 20, 7)) \
        == 2448 * 2 ** 20 + 32 * 21 ** 2 + 16 * 2 ** 8
    with pytest.raises(SizeError):
        admitted_bytes(monkeypatch, lambda: build_code(2, 0.5, 20, 8))
    # the same boundary at n = 6, built: the k = 5 graph fits exactly
    monkeypatch.setattr(errors, "MEMORY_BUDGET",
                        max(checks(monkeypatch, lambda: build_code(2, 0.5, 6, 5))))
    assert build_code(2, 0.5, 6, 5).size == 8
    with pytest.raises(SizeError):
        build_code(2, 0.5, 6, 6)
