"""Every source kind in one transfer form: marginals, matrix-free products
and the ergodicity scan against references built from each process's
own sequence probabilities `prob`, the alphabet vectors and the Kraus
operators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quclab.channels import amplitude_damping, depolarizing
from quclab.errors import ValidationError
from quclab.processes import (IIDProcess, MarkovProcess, MixtureProcess,
                              PeriodicProcess)
from quclab.sources import (ChannelTransformedSource, ClassicallyCorrelatedSource,
                            IIDSource, QuantumAlphabet, QuantumSource, ergodicity_gap)
from cycles import phase_subset
from randmat import random_density, random_hermitian
from reference import random_channel, sequence_probs


def _random_vectors(d, L, rng):
    v = rng.standard_normal((d, L)) + 1j * rng.standard_normal((d, L))
    return v / np.linalg.norm(v, axis=0)


def _random_stochastic(L, rng):
    P = rng.random((L, L)) + 0.05
    return P / P.sum(axis=1, keepdims=True)


def _enumerated(process, vectors, n):
    """sum over all L^n sequences x of mu(x) |psi_x><psi_x|."""
    w = np.ones((1, 1))
    for _ in range(n):
        w = np.kron(w, vectors)
    return (w * sequence_probs(process, n)) @ w.conj().T


def _kraus_by_site(rho, kraus, n):
    """The multi-index Kraus sum, one site at a time: X -> sum_k A_k X A_k^dagger
    on the row and column legs of each site."""
    d = kraus[0].shape[0]
    t = rho.reshape((d,) * (2 * n))
    for i in range(n):
        out = 0
        for a in kraus:
            u = np.moveaxis(np.tensordot(a, t, axes=(1, i)), 0, i)
            out = out + np.moveaxis(np.tensordot(a.conj(), u, axes=(1, n + i)), 0, n + i)
        t = out
    return t.reshape(rho.shape)


def _kraus_literal(rho, kraus, n):
    """sum over (k_1..k_n) of (A_k1 x ... x A_kn) rho (A_k1 x ... x A_kn)^dagger."""
    out = np.zeros_like(rho)
    for ks in np.ndindex(*(len(kraus),) * n):
        a = np.ones((1, 1))
        for k in ks:
            a = np.kron(a, kraus[k])
        out += a @ rho @ a.conj().T
    return out


def _iid_power(rho1, n):
    out = np.ones((1, 1))
    for _ in range(n):
        out = np.kron(out, rho1)
    return out


# --- oracle gates: every kind, both alphabets, zero to two channels, n <= 6

def _processes(L, rng):
    P = _random_stochastic(L, rng)
    cycle = [int(x) for x in rng.integers(0, L, 4)]
    subset = phase_subset(cycle, [0, 2], L=L)
    return {
        "iid": IIDProcess(rng.dirichlet(np.ones(L))),
        "markov": MarkovProcess(P),
        "markov-initial": MarkovProcess(P, initial=rng.dirichlet(np.ones(L))),
        "periodic-phase-subset": subset,
        # symbols below L - 1 only, so alphabet_size > max(cycle) + 1
        "periodic-wide": PeriodicProcess([c % (L - 1) for c in [0, 1, 0, 0]], L=L),
        "mixture": MixtureProcess([0.4, 0.6], [subset, MarkovProcess(P)]),
    }


CLASSICAL = ["iid", "markov", "markov-initial", "periodic-phase-subset",
             "periodic-wide", "mixture"]
GATE_CASES = ([(d, "iid-source", diag) for d in (2, 3) for diag in (True, False)]
              + [(d, kind, computational) for d in (2, 3) for kind in CLASSICAL
                 for computational in (True, False)])


def _gate_source(d, kind, flag, rng):
    """(source, reference marginal n -> dense matrix) for one gate case."""
    if kind == "iid-source":
        rho1 = np.diag(rng.dirichlet(np.ones(d))) if flag else random_density(d, rng)
        return IIDSource(rho1), lambda n: _iid_power(rho1, n)
    process = _processes(d, rng)[kind]
    vectors = np.eye(d) if flag else _random_vectors(d, d, rng)
    alphabet = QuantumAlphabet(vectors)
    assert alphabet.is_computational == flag
    return (ClassicallyCorrelatedSource(process, alphabet),
            lambda n: _enumerated(process, vectors, n))


@pytest.mark.parametrize("d, kind, flag", GATE_CASES)
def test_marginal_and_ergodicity_match_references(d, kind, flag):
    rng = np.random.default_rng([d, GATE_CASES.index((d, kind, flag))])
    source, reference = _gate_source(d, kind, flag, rng)
    channels = [random_channel(d, 2, rng), random_channel(d, 3, rng)]
    refs = {n: reference(n) for n in range(1, 7)}
    a, b = random_hermitian(d, rng), random_hermitian(d, rng)
    a2, b2 = random_hermitian(d * d, rng), random_hermitian(d * d, rng)
    for depth in range(3):
        for n, ref in refs.items():
            assert np.max(np.abs(source.marginal(n) - ref)) < 1e-12, (depth, n)
        # lag sums from the dense references, m = 1 up to N = 5, m = 2 up to N = 4
        for m, x, y, N in ((1, a, b, 5), (2, a2, b2, 4)):
            obs = {j: np.kron(np.kron(x, np.eye(d ** (j - m))), y) for j in range(m, N + 1)}
            terms = np.array([np.sum(refs[m + j] * o.T).real for j, o in obs.items()])
            product = (np.trace(refs[m] @ x) * np.trace(refs[m] @ y)).real
            rep = ergodicity_gap(source, x, y, m, N)
            assert abs(rep.cesaro - terms.mean()) < 1e-12
            assert abs(rep.product - product) < 1e-12
            assert abs(rep.weak_mixing_avg - np.abs(terms - product).mean()) < 1e-12
            assert abs(rep.strong_tail - (terms[-1] - product)) < 1e-12
        if depth < 2:
            c = channels[depth]
            source = ChannelTransformedSource(source, c)
            refs = {n: _kraus_by_site(ref, c.kraus, n) for n, ref in refs.items()}


def test_bad_arguments_are_validation_errors():
    s = IIDSource(np.diag([0.9, 0.1]))
    with pytest.raises(ValidationError):
        s.apply(3, np.ones(4))
    with pytest.raises(ValidationError):
        ergodicity_gap(s, np.eye(2), np.eye(2), 2, 1)


def test_apply_sweeps_real_sources_in_float64():
    # a depolarized source on a real alphabet has real site operators: a real
    # operand is swept in float64, a complex one in complex arithmetic
    real = ChannelTransformedSource(
        ClassicallyCorrelatedSource(MarkovProcess([[0.9, 0.1], [0.3, 0.7]]),
                                    QuantumAlphabet([[1.0, 0.6], [0.0, 0.8]])),
        depolarizing(0.2))
    damped = ChannelTransformedSource(
        IIDSource([[0.75, 0.2 - 0.15j], [0.2 + 0.15j, 0.25]]), amplitude_damping(0.3))
    rng = np.random.default_rng(8)
    n = 6
    v = rng.standard_normal((2 ** n, 3))
    w = v + 1j * rng.standard_normal((2 ** n, 3))
    for source, operand, dtype in ((real, v, np.float64), (real, w, np.complex128),
                                   (real, v[:, 0], np.float64), (damped, v, np.complex128)):
        out = source.apply(n, operand)
        assert out.dtype == dtype and out.shape == operand.shape
        assert np.max(np.abs(out - source.marginal(n) @ operand)) <= 1e-12


def reference_apply(source, n, v):
    """rho_n v by a tensordot per site, each moving the site's output leg to
    the back of the sweep tensor, so every later reshape copies it."""
    d = source.d
    sites = source._sweep_sites
    closed = sites.sum(axis=1, keepdims=True)
    t = np.multiply.outer(source.left, v.reshape(d ** n, -1))
    for site in range(n):
        m = closed if site == n - 1 else sites
        t = np.tensordot(m, t.reshape(t.shape[0], d, -1), axes=([0, 3], [0, 1]))
        t = np.moveaxis(t, 1, -1)
    return t.reshape(-1, d ** n).T.reshape(v.shape)


@st.composite
def sweeps(draw):
    """(source, n, operand): chi x chi sites M[i, j] = P[i, j] rho_ij with
    random density operators rho_ij, real or complex, so ||rho_n|| <= 1; n = 1
    is a closed first site."""
    chi, d, n = draw(st.integers(1, 4)), draw(st.integers(2, 3)), draw(st.integers(1, 6))
    complex_sites, complex_operand = draw(st.booleans()), draw(st.booleans())
    columns = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rhos = np.array([[random_density(d, rng) for _ in range(chi)] for _ in range(chi)])
    sites = _random_stochastic(chi, rng)[:, :, None, None] * (
        rhos if complex_sites else rhos.real)
    source = QuantumSource(rng.dirichlet(np.ones(chi)), sites)
    assert source._sweep_sites.dtype == (np.complex128 if complex_sites else np.float64)
    shape = (d ** n,) if columns is None else (d ** n, columns)
    v = rng.standard_normal(shape)
    if complex_operand:
        v = v + 1j * rng.standard_normal(shape)
    return source, n, v


@given(sweeps())
def test_apply_matches_the_tensordot_sweep(sweep):
    source, n, v = sweep
    out, ref = source.apply(n, v), reference_apply(source, n, v)
    assert out.shape == v.shape and out.dtype == ref.dtype
    assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(v)


# --- property test on random small chains


@st.composite
def chains(draw):
    L = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([d for d in (2, 3) if d >= L]))
    kind = draw(st.sampled_from(["iid", "markov", "periodic", "mixture"]))
    # n <= 4 at d = 3 keeps the literal K^n-term Kraus sum small
    n = draw(st.integers(1, 5 if d == 2 else 4))
    n_kraus = draw(st.integers(1, 3))
    custom_initial = draw(st.booleans())
    cycle = draw(st.lists(st.integers(0, L - 1), min_size=1, max_size=4))
    phases = draw(st.sets(st.integers(0, len(cycle) - 1), min_size=1))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    P = _random_stochastic(L, rng)
    markov = MarkovProcess(P, initial=rng.dirichlet(np.ones(L)) if custom_initial else None)
    periodic = phase_subset(cycle, sorted(phases), L=L)
    process = {"iid": IIDProcess(rng.dirichlet(np.ones(L))), "markov": markov,
               "periodic": periodic,
               "mixture": MixtureProcess([0.3, 0.7], [periodic, markov])}[kind]
    return process, _random_vectors(d, L, rng), random_channel(d, n_kraus, rng), n, rng


@given(chains())
def test_random_chain_matches_enumeration_and_kraus_sum(chain):
    process, vectors, channel, n, rng = chain
    source = ChannelTransformedSource(
        ClassicallyCorrelatedSource(process, QuantumAlphabet(vectors)), channel)
    reference = _kraus_literal(_enumerated(process, vectors, n), channel.kraus, n)
    rho = source.marginal(n)
    assert np.max(np.abs(rho - reference)) < 1e-12
    D = rho.shape[0]
    v = rng.standard_normal((D, 3)) + 1j * rng.standard_normal((D, 3))
    assert np.max(np.abs(source.apply(n, v) - rho @ v)) < 1e-12
    assert np.max(np.abs(source.apply(n, v[:, 0]) - rho @ v[:, 0])) < 1e-12
    # scalar emissions: the hidden-Markov form alone gives the classical marginal
    probs = sequence_probs(process, n)
    T = process.T
    x = process.initial[:, None]
    for _ in range(n):
        x = np.einsum("ia,ijs->jas", x, T).reshape(T.shape[1], -1)
    assert np.max(np.abs(x.sum(axis=0) - probs)) < 1e-12
    assert np.max(np.abs(process.marginal(n).probs - probs)) < 1e-12
