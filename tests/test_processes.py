import math
import tracemalloc

import numpy as np
import pytest

from quclab.errors import SizeError, ValidationError
from quclab.processes import (ClassicalProcess, Distribution, IIDProcess,
                              MarkovProcess, MixtureProcess, PeriodicProcess,
                              entropy_bits, ergodic_decomposition_l,
                              high_entropy_components)
from quclab.sources import (ClassicallyCorrelatedSource, QuantumAlphabet,
                            abelian_restriction, ergodicity_gap)
from cycles import phase_subset
from reference import marginalize_first, marginalize_last, sequence_index, sequence_probs

H01 = entropy_bits([0.9, 0.1])
H02 = entropy_bits([0.8, 0.2])
MARKOV_P = [[0.9, 0.1], [0.2, 0.8]]


def test_iid_marginal_values():
    p = IIDProcess([0.9, 0.1]).marginal(2).probs
    assert abs(p[0] - 0.81) < 1e-15
    assert abs(p[1] - 0.09) < 1e-15


def test_markov_stationary_distribution():
    mk = MarkovProcess(MARKOV_P)
    assert np.allclose(mk.pi, [2 / 3, 1 / 3], atol=1e-12)
    assert abs(mk.marginal(1).probs[0] - 2 / 3) < 1e-12


def test_periodic_marginals():
    p = PeriodicProcess([0, 1])
    mu = p.marginal(2).probs
    assert mu[sequence_index([0, 1], 2)] == 0.5
    assert mu[sequence_index([1, 0], 2)] == 0.5
    assert mu[sequence_index([0, 0], 2)] == 0.0


@pytest.mark.parametrize("kwargs", [
    {"cycle": [0, 2, 2, 1, 0]},
    {"cycle": [0, 2, 2, 1, 0], "phases": [1, 3, 4]},
    {"cycle": [1, 0, 1], "phases": [0, 2], "L": 4},
])
@pytest.mark.parametrize("n", [1, 3, 7])
def test_periodic_marginal_matches_prob_enumeration(kwargs, n):
    # n = 1, 3 are shorter than every cycle here and n = 7 is longer
    p = phase_subset(**kwargs) if "phases" in kwargs else PeriodicProcess(**kwargs)
    mu = p.marginal(n).probs
    assert mu.shape == (p.L ** n,)
    assert np.array_equal(mu, sequence_probs(p, n))


# the other kinds, to rounding: their products and sums of probabilities
# round differently in `prob`; custom initial vectors make a chain
# non-stationary
ENUMERATED = {
    "iid": IIDProcess([0.6, 0.3, 0.1]),
    "markov": MarkovProcess([[0.7, 0.2, 0.1], [0.3, 0.3, 0.4], [0.05, 0.15, 0.8]]),
    "markov-initial": MarkovProcess(MARKOV_P, initial=[0.15, 0.85]),
    "mixture": MixtureProcess([0.3, 0.7], [PeriodicProcess([0, 1, 1]),
                                           MarkovProcess(MARKOV_P, initial=[0.4, 0.6])]),
}


@pytest.mark.parametrize("kind", ENUMERATED)
@pytest.mark.parametrize("n", [1, 3, 7])
def test_marginal_matches_prob_enumeration(kind, n):
    p = ENUMERATED[kind]
    mu = p.marginal(n).probs
    assert mu.shape == (p.L ** n,)
    assert np.max(np.abs(mu - sequence_probs(p, n))) < 1e-15


def test_periodic_marginal_guards():
    p = PeriodicProcess([0, 1])
    with pytest.raises(ValidationError):
        p.marginal(0)
    # two hidden states: 17 * 2^n bytes, 2.1 GiB at n = 27 and 4.3 GiB at
    # n = 28, the first block length past the memory budget
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="memory budget"):
            p.marginal(28)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("proc", [
    IIDProcess([0.9, 0.1]),
    MarkovProcess(MARKOV_P),
    PeriodicProcess([0, 1, 1]),
    MixtureProcess([0.5, 0.5], [IIDProcess([0.9, 0.1]), IIDProcess([0.5, 0.5])]),
])
def test_consistency_and_stationarity(proc):
    for n in (1, 2, 3):
        for i in (1, 2):
            big = proc.marginal(n + i)
            assert np.max(np.abs(marginalize_last(big, i).probs - proc.marginal(n).probs)) < 1e-12
            assert np.max(np.abs(marginalize_first(big, i).probs - proc.marginal(n).probs)) < 1e-12


def test_entropy_rates():
    assert abs(IIDProcess([0.9, 0.1]).entropy_rate() - H01) < 1e-12
    mk = MarkovProcess(MARKOV_P)
    # conditional-entropy formula evaluated independently
    expected = (2 / 3) * H01 + (1 / 3) * H02
    assert abs(mk.entropy_rate() - expected) < 1e-12
    assert PeriodicProcess([0, 1, 2]).entropy_rate() == 0.0


def test_entropy_rate_requires_stationary_markov():
    mk = MarkovProcess(MARKOV_P, initial=[1.0, 0.0])
    with pytest.raises(ValidationError):
        mk.entropy_rate()


def test_shannon_entropy_examples():
    assert abs(Distribution(2, 2, np.full(4, 0.25)).entropy() - 2.0) < 1e-12
    point = np.zeros(4)
    point[2] = 1.0
    assert Distribution(2, 2, point).entropy() == 0.0
    block = IIDProcess([0.9, 0.1]).marginal(2)
    assert abs(block.entropy() - 2 * H01) < 1e-12


def test_entropy_rate_is_inf_of_block_entropies():
    p = IIDProcess([0.7, 0.2, 0.1])
    vals = [p.marginal(n).entropy() / n for n in (1, 4, 8)]
    assert abs(min(vals) - p.entropy_rate()) < 1e-9
    mk = MarkovProcess(MARKOV_P)
    hseq = [mk.marginal(n).entropy() / n for n in range(1, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(hseq, hseq[1:]))


def test_block_process_iid():
    b = IIDProcess([0.9, 0.1]).block(2)
    assert np.allclose(b.marginal(1).probs, [0.81, 0.09, 0.09, 0.01], atol=1e-15)


def test_block_process_markov():
    mk = MarkovProcess(MARKOV_P)
    b = mk.block(2)
    # the block chain of a stationary Markov chain is Markov, so its entropy
    # rate H(mu_2) - H(mu_1) is twice the chain's
    assert abs(b.marginal(2).entropy() - b.marginal(1).entropy()
               - 2 * mk.entropy_rate()) < 1e-10
    for j in (1, 2):
        assert np.max(np.abs(b.marginal(j).probs - mk.marginal(2 * j).probs)) < 1e-12


BLOCKED = {**ENUMERATED,
           "periodic": PeriodicProcess([0, 2, 2, 1, 0]),
           "periodic-phase-subset": phase_subset([1, 0, 1, 1], [0, 1], L=3)}


@pytest.mark.parametrize("kind", BLOCKED)
@pytest.mark.parametrize("l", [2, 3])
def test_block_marginals_match_long_marginals(kind, l):
    p = BLOCKED[kind]
    b = p.block(l)
    assert b.L == p.L ** l and len(b.initial) == len(p.initial)
    for j in (1, 2, 3):
        assert np.max(np.abs(b.marginal(j).probs - p.marginal(l * j).probs)) < 1e-12


def test_block_process_periodic():
    p = PeriodicProcess([0, 1])
    b = p.block(2)
    mu = b.marginal(1).probs
    assert np.max(np.abs(mu - p.marginal(2).probs)) < 1e-12


def test_block_identity():
    p = IIDProcess([0.5, 0.5])
    assert p.block(1) is p


def test_decomposition_periodic_two_cycle():
    dec = ergodic_decomposition_l(PeriodicProcess([0, 1]), 2)
    assert dec.k == 2
    # components are point masses on the two phase sequences
    for comp, seq in zip(dec.components, ([0, 1], [1, 0])):
        assert comp.marginal(2).probs[sequence_index(seq, 2)] == 1.0
    # shift relation: component 1 = component 0 shifted by 1
    assert np.array_equal(marginalize_first(dec.components[0].marginal(3), 1).probs,
                          dec.components[1].marginal(2).probs)


def test_decomposition_periodic_three_cycle():
    dec = ergodic_decomposition_l(PeriodicProcess([0, 1, 2]), 3)
    assert dec.k == 3


def test_decomposition_markov_aperiodic():
    mk = MarkovProcess(MARKOV_P)
    for l in (1, 2, 3):
        dec = ergodic_decomposition_l(mk, l)
        assert dec.k == 1
        assert dec.components[0] is mk


def test_decomposition_reconstruction():
    p = PeriodicProcess([0, 1, 0, 1, 1, 0])
    for l in (2, 3):
        dec = ergodic_decomposition_l(p, l)
        mix = sum(c.marginal(l).probs for c in dec.components) / dec.k
        assert np.max(np.abs(mix - p.marginal(l).probs)) < 1e-12


def _check_decomposition(p, l, n):
    """The uniform mixture of the components' n-marginals is p's, and
    component x + 1 is component x shifted by one site."""
    dec = ergodic_decomposition_l(p, l)
    mix = sum(c.marginal(n).probs for c in dec.components) / dec.k
    assert np.max(np.abs(mix - p.marginal(n).probs)) < 1e-12
    for x, comp in enumerate(dec.components):
        nxt = dec.components[(x + 1) % dec.k]
        assert np.max(np.abs(marginalize_first(comp.marginal(n + 1), 1).probs
                             - nxt.marginal(n).probs)) < 1e-12
    return dec


# period 2: {0, 1} <-> {2, 3}; period 3: 0 -> {1, 2} -> 3 -> 0
PERIOD_2 = [[0, 0, 0.5, 0.5], [0, 0, 0.3, 0.7], [0.4, 0.6, 0, 0], [0.1, 0.9, 0, 0]]
PERIOD_3 = [[0, 0.4, 0.6, 0], [0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, 0]]


def test_decomposition_k_is_gcd_of_period_and_l():
    for cycle in ([0, 1], [0, 1, 1], [0, 1, 0, 1, 1, 0]):
        for l in range(1, 7):
            dec = _check_decomposition(PeriodicProcess(cycle), l, 6)
            assert dec.k == math.gcd(len(cycle), l)
    for P, g in ((PERIOD_2, 2), (PERIOD_3, 3)):
        for l in range(2, 7):
            assert _check_decomposition(MarkovProcess(P), l, 6).k == math.gcd(g, l)
    iid = IIDProcess([0.3, 0.7])
    for l in (1, 2, 3):
        dec = _check_decomposition(iid, l, 6)
        assert dec.k == 1 and dec.components[0] is iid


def test_decomposition_of_chains_regroupings_and_restrictions():
    # a transient state outside the support of the stationary vector
    transient = MarkovProcess([[0.5, 0.25, 0.25], [0, 0.9, 0.1], [0, 0.2, 0.8]])
    assert _check_decomposition(transient, 2, 6).k == 1
    # a transient state in front of a period-2 class
    flip = MarkovProcess([[0, 1, 0], [0, 0, 1], [0, 1, 0]], initial=[0, 0.5, 0.5])
    assert _check_decomposition(flip, 4, 6).k == 2
    assert _check_decomposition(MarkovProcess(MARKOV_P).block(2), 2, 4).k == 1
    # two steps of the 3-cycle are still a 3-cycle
    assert _check_decomposition(PeriodicProcess([0, 1, 1]).block(2), 3, 4).k == 3
    alphabet = QuantumAlphabet(np.array([[1.0, 0.6], [0.0, 0.8]]))
    markov = ClassicallyCorrelatedSource(MarkovProcess(MARKOV_P), alphabet)
    assert _check_decomposition(abelian_restriction(markov, 2)[0], 2, 4).k == 1
    cycle = ClassicallyCorrelatedSource(PeriodicProcess([0, 1, 1]), alphabet)
    restricted = abelian_restriction(cycle, 1)[0]
    assert _check_decomposition(restricted, 3, 8).k == 3
    assert _check_decomposition(restricted, 2, 8).k == 1


def test_decomposition_needs_a_stationary_single_class_process():
    for p in (MarkovProcess(MARKOV_P, initial=[1.0, 0.0]),
              phase_subset([0, 1, 1, 0], [0, 2])):
        with pytest.raises(ValidationError, match="stationary"):
            ergodic_decomposition_l(p, 2)
    mix = MixtureProcess([0.5, 0.5], [IIDProcess([0.9, 0.1]), IIDProcess([0.5, 0.5])])
    with pytest.raises(ValidationError, match="one closed class"):
        ergodic_decomposition_l(mix, 2)


def test_high_entropy_components():
    dec = ergodic_decomposition_l(PeriodicProcess([0, 1]), 2)
    assert high_entropy_components(dec, 0.0, 0.1, 2) == set()
    # eta beyond log L - s is always empty
    mk_dec = ergodic_decomposition_l(MarkovProcess(MARKOV_P), 2)
    assert high_entropy_components(mk_dec, 0.9, 0.2, 4) == set()
    # hand-built decomposition with one noisy phase
    from quclab.processes import Decomposition
    dec = Decomposition(l=1, k=2, components=[PeriodicProcess([0]), IIDProcess([0.5, 0.5])])
    assert high_entropy_components(dec, 0.5, 0.2, 2) == {1}


def test_mixture_entropy_rate_warns():
    mix = MixtureProcess([0.5, 0.5], [IIDProcess([0.9, 0.1]), IIDProcess([0.5, 0.5])])
    assert not mix.ergodic
    with pytest.warns(UserWarning):
        h = mix.entropy_rate()
    assert abs(h - 0.5 * (H01 + 1.0)) < 1e-12


def _lag_terms(process, f, g, m, lags):
    """E[f(X_1..X_m) g(X_{j+1}..X_{j+m})] per lag j, read from ergodicity_gap
    on the computational-alphabet source: strong_tail + product is the lag-N
    term."""
    s = ClassicallyCorrelatedSource(process, QuantumAlphabet.computational(process.L))
    out = []
    for j in lags:
        rep = ergodicity_gap(s, np.diag(f), np.diag(g), m, j)
        out.append(rep.strong_tail + rep.product)
    return out


def test_markov_lagged_pairs_match_bruteforce():
    mk = MarkovProcess(MARKOV_P)
    f = np.array([1.0, 0.0])
    g = np.array([0.3, -0.7])
    lags = range(1, 6)
    fast = _lag_terms(mk, f, g, 1, lags)
    for j, val in zip(lags, fast):
        mu = mk.marginal(j + 1).probs.reshape(2, 2 ** (j - 1), 2)
        brute = np.einsum("a,abc,c->", f, mu, g)
        assert abs(val - brute) < 1e-12


def test_markov_lagged_pairs_m2():
    mk = MarkovProcess(MARKOV_P)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(4)
    g = rng.standard_normal(4)
    fast = _lag_terms(mk, f, g, 2, [2, 3, 4])
    for j, val in zip([2, 3, 4], fast):
        mu = mk.marginal(j + 2).probs.reshape(4, 2 ** (j - 2), 4)
        brute = np.einsum("a,abc,c->", f, mu, g)
        assert abs(val - brute) < 1e-12


def test_periodic_lagged_pairs():
    p = PeriodicProcess([0, 1])
    f = np.array([1.0, 0.0])
    vals = _lag_terms(p, f, f, 1, [1, 2, 3])
    assert np.allclose(vals, [0.0, 0.5, 0.0])


def test_invalid_symbols_and_initial_length():
    # each would index past the hidden-Markov transfer form
    with pytest.raises(ValidationError):
        PeriodicProcess([0, 3], L=2)
    with pytest.raises(ValidationError):
        PeriodicProcess([0, -1])
    with pytest.raises(ValidationError):
        MarkovProcess(MARKOV_P, initial=[1.0])


def test_reducible_chain_needs_an_initial_distribution():
    # the identity chain has every distribution as a stationary one
    with pytest.raises(ValidationError, match="no unique stationary distribution"):
        MarkovProcess([[1.0, 0.0], [0.0, 1.0]])
    mk = MarkovProcess([[1.0, 0.0], [0.0, 1.0]], initial=[0.5, 0.5])
    assert mk.stationary and mk.entropy_rate() == 0.0
    mu = mk.marginal(3).probs
    assert mu[0] == mu[7] == 0.5 and mu.sum() == 1.0
    assert not mk.ergodic


def test_stationary_flag_of_an_initial_distribution():
    assert MarkovProcess(MARKOV_P, initial=[2 / 3, 1 / 3]).stationary
    assert not MarkovProcess(MARKOV_P, initial=[0.6, 0.4]).stationary


@pytest.mark.parametrize("transition, initial, ergodic", [
    ([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], False),  # a mixture of two constant sequences
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], True),
    ([[0.5, 0.5], [0.0, 1.0]], None, True),  # pi = (0, 1): the transient state is never seen
    ([[0.5, 0.5], [0.0, 1.0]], [1.0, 0.0], False),  # the support is not closed
    (MARKOV_P, None, True),
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], None, True),
])
def test_markov_ergodic_flag_follows_the_chain(transition, initial, ergodic):
    assert MarkovProcess(transition, initial=initial).ergodic is ergodic


@pytest.mark.parametrize("make, named", [
    (lambda: IIDProcess([np.nan, 0.5]), "probability vector"),
    (lambda: IIDProcess([np.inf, 0.0]), "probability vector"),
    (lambda: MarkovProcess([[np.nan, 0.5], [0.5, 0.5]]), "transition row"),
    (lambda: MarkovProcess(MARKOV_P, initial=[np.nan, 1.0]), "initial distribution"),
    (lambda: MixtureProcess([np.nan, 0.5], [IIDProcess([1.0]), IIDProcess([1.0])]),
     "mixture weights"),
    (lambda: Distribution(2, 1, [np.nan, 0.5]), "distribution"),
    (lambda: ClassicalProcess([np.nan, 1.0], np.full((2, 2, 1), 0.5)), "sum to 1"),
    # entries that sum to 1 but are negative: every measure sums products of them
    (lambda: ClassicalProcess([1.5, -0.5], np.full((2, 2, 1), 0.5)), "negative entries"),
    (lambda: ClassicalProcess([0.5, 0.5], np.array([[[1.2], [-0.2]], [[0.5], [0.5]]])),
     "negative entries"),
], ids=["iid-nan", "iid-inf", "markov-row", "markov-initial", "mixture-weights",
        "distribution", "transfer-form", "transfer-negative-initial", "transfer-negative-tensor"])
def test_non_finite_probabilities_rejected(make, named):
    with pytest.raises(ValidationError, match=named):
        make()


def test_invalid_probability_vectors():
    with pytest.raises(ValidationError):
        IIDProcess([0.5, 0.6])
    with pytest.raises(ValidationError):
        MarkovProcess([[0.9, 0.2], [0.2, 0.8]])
