import numpy as np
import pytest

from quclab import sources
from quclab.channels import (amplitude_damping, apply_tensor_power, dephasing,
                             depolarizing, identity_channel)
from quclab.errors import SizeError, ValidationError
from quclab.processes import (IIDProcess, MarkovProcess, MixtureProcess,
                              PeriodicProcess)
from quclab.sources import (ChannelTransformedSource, ClassicallyCorrelatedSource,
                            IIDSource, QuantumAlphabet, QuantumSource,
                            abelian_restriction, check_consistency,
                            check_stationarity, conditional_expectation,
                            ergodicity_gap, verify_invariance)
from randmat import haar_unitary, random_hermitian

MARKOV_P = [[0.9, 0.1], [0.2, 0.8]]


def markov_source():
    return ClassicallyCorrelatedSource(MarkovProcess(MARKOV_P),
                                       QuantumAlphabet.computational(2))


def test_alphabet_validation():
    with pytest.raises(ValidationError):
        QuantumAlphabet(np.array([[1.0, 0.5], [0.0, 0.5]]).T)  # not unit norm
    v0 = np.array([1.0, 0.0])
    with pytest.raises(ValidationError):
        QuantumAlphabet(np.column_stack([v0, v0]))  # dependent
    with pytest.raises(ValidationError, match="non-finite"):
        QuantumAlphabet(np.array([[1.0, np.nan], [0.0, 1.0]]))  # before the Gram matrix
    assert QuantumAlphabet.computational(3).is_computational


def test_non_finite_transfer_form_rejected():
    site = np.eye(2)[None, None] / 2
    with pytest.raises(ValidationError, match="sum to 1"):
        QuantumSource([np.nan], site)
    with pytest.raises(ValidationError, match="sum to 1"):
        QuantumSource([1.0], site * np.nan)


def test_iid_marginal_tensor_power():
    s = IIDSource(np.diag([0.9, 0.1]))
    assert np.allclose(s.marginal(2), np.diag([0.81, 0.09, 0.09, 0.01]))


def test_classically_correlated_diagonal():
    s = markov_source()
    mu = s.process.marginal(3).probs
    assert np.max(np.abs(s.marginal(3) - np.diag(mu))) < 1e-15
    assert np.max(np.abs(s.classical_view().marginal(3).probs - mu)) < 1e-15


def test_classically_correlated_nonorthogonal():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    alph = QuantumAlphabet(np.column_stack([np.array([1.0, 0.0]), plus]))
    s = ClassicallyCorrelatedSource(IIDProcess([0.5, 0.5]), alph)
    assert np.max(np.abs(s.marginal(1) - np.array([[0.75, 0.25], [0.25, 0.25]]))) < 1e-12
    assert s.classical_view() is None


def test_consistency_all_kinds():
    assert check_consistency(IIDSource(np.diag([0.9, 0.1])), 2, 2) < 1e-12
    assert check_consistency(markov_source(), 2, 2) < 1e-10
    assert check_consistency(
        ChannelTransformedSource(markov_source(), depolarizing(0.25)), 2, 2) < 1e-10


def test_consistency_catches_corruption():
    class Broken(IIDSource):
        def marginal(self, n):
            rho = super().marginal(n)
            if n == 4:
                rho = np.diag(np.full(2 ** n, 1.0 / 2 ** n))
            return rho

    s = Broken(np.diag([0.9, 0.1]))
    assert check_consistency(s, 2, 2) > 0.01


def test_stationarity():
    assert check_stationarity(IIDSource(np.diag([0.9, 0.1])), 2, 1) < 1e-12
    assert check_stationarity(markov_source(), 2, 2) < 1e-10
    # non-stationary initialization breaks shift invariance by a computable gap
    ns = ClassicallyCorrelatedSource(MarkovProcess(MARKOV_P, initial=[1.0, 0.0]),
                                     QuantumAlphabet.computational(2))
    # rho_1 - rho_2 reduced to its second site is diag(0.1, -0.1): P(X1 = 0)
    # - P(X2 = 0) = 1 - 0.9 from initial (1, 0), and its trace norm is 0.2
    dev = check_stationarity(ns, 1, 1)
    assert abs(dev - 0.2) < 1e-12


def test_ergodicity_iid_factorizes():
    s = IIDSource(np.diag([0.9, 0.1]))
    a = np.diag([1.0, 0.0])
    rep = ergodicity_gap(s, a, a, 1, 50)
    assert rep.gap < 1e-12
    assert rep.weak_mixing_avg < 1e-12


def test_ergodicity_markov_closed_form():
    s = markov_source()
    a = np.diag([1.0, 0.0])
    N = 2000
    rep = ergodicity_gap(s, a, a, 1, N)
    # closed form: (P^j)_00 = pi0 + (1 - pi0) lam^j with lam = 1 - p01 - p10
    pi0, lam = 2 / 3, 0.7
    terms = [pi0 * (pi0 + (1 - pi0) * lam ** j) for j in range(1, N + 1)]
    oracle = np.mean(terms)
    assert abs(rep.cesaro - oracle) < 1e-12
    assert abs(rep.product - pi0 ** 2) < 1e-12
    assert rep.gap < 0.01
    assert abs(rep.strong_tail) < 1e-10  # strongly mixing: tail term decays


def test_ergodicity_mixture_gap():
    mix = MixtureProcess([0.5, 0.5], [IIDProcess([0.9, 0.1]), IIDProcess([0.5, 0.5])])
    s = ClassicallyCorrelatedSource(mix, QuantumAlphabet.computational(2))
    a = np.diag([1.0, 0.0])
    rep = ergodicity_gap(s, a, a, 1, 500)
    assert abs(rep.gap - 0.25 * (0.9 - 0.5) ** 2) < 1e-12


def _dense_lag_terms(s, a, b, m, N):
    """tr(rho_{m+j} (a x 1^{j-m} x b)) for j = m..N from dense marginals."""
    obs = [np.kron(np.kron(a, np.eye(s.d ** (j - m))), b) for j in range(m, N + 1)]
    return np.array([np.trace(s.marginal(m + j) @ o).real for j, o in zip(range(m, N + 1), obs)])


def test_ergodicity_fast_path_matches_dense():
    s = markov_source()
    a = np.diag([1.0, 0.0])
    fast = ergodicity_gap(s, a, a, 1, 8)
    terms = _dense_lag_terms(s, a, a, 1, 8)
    rho1 = s.marginal(1)
    assert abs(fast.cesaro - np.mean(terms)) < 1e-12
    assert abs(fast.product - np.trace(rho1 @ a).real ** 2) < 1e-12


def test_ergodicity_sigma_x_markov():
    # off-diagonal observables on a diagonal source: every term is 0, at the
    # default N of check-ergodic too
    s = markov_source()
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = ergodicity_gap(s, x, x, 1, 200)
    assert rep.cesaro == 0.0 and rep.product == 0.0
    assert rep.weak_mixing_avg == 0.0 and rep.strong_tail == 0.0
    assert np.max(np.abs(_dense_lag_terms(s, x, x, 1, 6))) == 0.0


def test_ergodicity_matches_driving_process():
    # diagonal observables reduce exactly to classical expectations
    s = markov_source()
    a = np.diag([0.3, -0.5])
    rep = ergodicity_gap(s, a, a, 1, 100)
    f = np.array([0.3, -0.5])
    pi, P = s.process.pi, np.array(MARKOV_P)
    terms = [(pi * f) @ np.linalg.matrix_power(P, j) @ f for j in range(1, 101)]
    assert abs(rep.cesaro - np.mean(terms)) < 1e-12


def test_conditional_expectation_properties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        basis = haar_unitary(4, rng)
        a = random_hermitian(4, rng)
        b_diag = (basis * rng.standard_normal(4)) @ basis.conj().T  # in the algebra
        ea = conditional_expectation(a, basis)
        # (a) linear + positive: E(I) = I
        assert np.max(np.abs(conditional_expectation(np.eye(4), basis) - np.eye(4))) < 1e-12
        # (b) fixes the algebra
        assert np.max(np.abs(conditional_expectation(b_diag, basis) - b_diag)) < 1e-12
        # (c) module property E(b a) = b E(a)
        assert np.max(np.abs(conditional_expectation(b_diag @ a, basis) - b_diag @ ea)) < 1e-12
        # (d) trace compatibility tr(E(a) b) = tr(a b) for b in the algebra
        assert abs(np.trace(ea @ b_diag) - np.trace(a @ b_diag)) < 1e-12


def test_conditional_expectation_examples():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.max(np.abs(conditional_expectation(x, np.eye(2)))) < 1e-15
    d = np.diag([0.2, 0.8]).astype(complex)
    assert np.allclose(conditional_expectation(d, np.eye(2)), d)
    with pytest.raises(ValidationError):
        conditional_expectation(x, np.array([[1, 1], [0, 1]], dtype=complex))


def test_abelian_restriction_diagonal_iid():
    proc, basis = abelian_restriction(IIDSource(np.diag([0.9, 0.1])), 1)
    assert np.max(np.abs(proc.marginal(2).probs - [0.81, 0.09, 0.09, 0.01])) < 1e-12


def test_abelian_restriction_recovers_process():
    s = markov_source()
    proc, _ = abelian_restriction(s, 1)
    for n in (1, 2, 3):
        assert np.max(np.abs(proc.marginal(n).probs - s.process.marginal(n).probs)) < 1e-12


def test_abelian_restriction_nondiagonal():
    rho = np.array([[0.75, 0.25], [0.25, 0.25]])
    proc, basis = abelian_restriction(IIDSource(rho), 1)
    lam = 0.5 + np.sqrt((0.75 - 0.25) ** 2 / 4 + 0.25 ** 2)  # top eigenvalue
    assert abs(proc.marginal(1).probs[0] - lam) < 1e-12
    # entropy bridge: S(rho_l) = H(mu_l)
    from quclab.info import von_neumann_entropy
    s = IIDSource(rho)
    for l in (1, 2):
        pr, _ = abelian_restriction(s, l)
        assert abs(von_neumann_entropy(s.marginal(l)) - pr.marginal(1).entropy()) < 1e-10


COMPLEX_ALPHABET = QuantumAlphabet(np.array([[1.0, 0.6], [0.0, 0.8j]]))
ABELIAN_SOURCES = {
    "depolarized-markov": lambda: ChannelTransformedSource(
        ClassicallyCorrelatedSource(MarkovProcess(MARKOV_P), COMPLEX_ALPHABET),
        depolarizing(0.2)),
    "iid": lambda: IIDSource(np.array([[0.75, 0.2 - 0.15j], [0.2 + 0.15j, 0.25]])),
    "periodic": lambda: ClassicallyCorrelatedSource(PeriodicProcess([0, 1, 1]),
                                                    COMPLEX_ALPHABET),
    "dephased-mixture": lambda: ChannelTransformedSource(ClassicallyCorrelatedSource(
        MixtureProcess([0.4, 0.6], [PeriodicProcess([0, 1, 1]), MarkovProcess(MARKOV_P)]),
        COMPLEX_ALPHABET), dephasing(0.3)),
}


@pytest.mark.parametrize("l, k", [(1, 3), (1, 5), (2, 2)])
def test_abelian_restriction_complex_source(l, k, monkeypatch):
    # block marginals are the diagonal of (B^{x k})^dagger rho_{lk} B^{x k},
    # computed with rho_l as the only dense marginal
    sources = {kind: make() for kind, make in ABELIAN_SOURCES.items()}
    rhos = {kind: s.marginal(l * k) for kind, s in sources.items()}
    marginal = QuantumSource.marginal

    def only_l(self, n, *args):
        if n != l:
            raise AssertionError(f"dense marginal at n = {n} formed")
        return marginal(self, n, *args)
    monkeypatch.setattr(QuantumSource, "marginal", only_l)
    for kind, s in sources.items():
        proc, basis = abelian_restriction(s, l)
        probs = proc.marginal(k).probs
        bk = np.eye(1)
        for _ in range(k):
            bk = np.kron(bk, basis)
        expected = np.diag(bk.conj().T @ rhos[kind] @ bk).real
        assert np.max(np.abs(probs - expected)) < 1e-12, kind


def test_verify_invariance_identity():
    rep = verify_invariance(IIDSource(np.diag([0.9, 0.1])), identity_channel(2),
                            m_max=4, N=50)
    assert rep["consistency"] < 1e-12
    assert rep["stationarity"] < 1e-12
    assert rep["duality"] < 1e-12


def test_verify_invariance_depolarizing_markov():
    rep = verify_invariance(markov_source(), depolarizing(0.25), m_max=5, N=500)
    assert verify_invariance(markov_source(), depolarizing(0.25), m_max=5, N=500) == rep
    assert rep["consistency"] < 1e-10
    assert rep["stationarity"] < 1e-10
    assert rep["duality"] < 1e-10
    assert rep["ergodicity"].gap < 0.01


def test_reduction_deviation_is_the_supremum_over_observables():
    # the trace norm bounds every normalized |tr(rho_m a) - tr(rho_{m+i} a')|
    # and is attained at a = sign(Delta)
    ns = ClassicallyCorrelatedSource(MarkovProcess(MARKOV_P, initial=[0.3, 0.7]),
                                     QuantumAlphabet(np.array([[1.0, 0.6], [0.0, 0.8]])))
    rng = np.random.default_rng(7)
    for m, i in [(1, 1), (2, 1), (1, 2)]:
        dev = check_stationarity(ns, m, i)
        delta = ns.marginal(m) - np.trace(
            ns.marginal(m + i).reshape(2 ** i, 2 ** m, 2 ** i, 2 ** m), axis1=0, axis2=2)
        w, v = np.linalg.eigh(delta)
        sign = (v * np.sign(w)) @ v.conj().T
        assert abs(dev - abs(np.trace(delta @ sign))) < 1e-12
        for _ in range(20):
            a = random_hermitian(2 ** m, rng)
            assert abs(np.trace(delta @ a)) / np.linalg.norm(a, 2) <= dev + 1e-12
        assert dev > 0.01


def test_verify_invariance_catches_a_wrong_dual(monkeypatch):
    # amplitude damping is not self-dual, so the channel in place of its
    # dual breaks the duality identity by a finite trace norm
    s, c = IIDSource(np.diag([0.7, 0.3])), amplitude_damping(0.5)
    assert verify_invariance(s, c, m_max=3, N=20)["duality"] < 1e-12
    monkeypatch.setattr(sources, "heisenberg_dual", apply_tensor_power)
    assert verify_invariance(s, c, m_max=3, N=20)["duality"] > 0.1


def test_dephasing_plus_state_becomes_mixed():
    plus = np.full((2, 2), 0.5)
    t = ChannelTransformedSource(IIDSource(plus), dephasing(1.0))
    assert np.max(np.abs(t.marginal(2) - np.eye(4) / 4)) < 1e-12
    rep = verify_invariance(IIDSource(plus), dephasing(1.0), m_max=4, N=50)
    assert rep["consistency"] < 1e-10 and rep["stationarity"] < 1e-10


def test_marginal_cache_and_cap():
    s = IIDSource(np.diag([0.5, 0.5]))
    with pytest.raises(SizeError):
        s.marginal(20)


def test_ergodicity_gap_names_the_observable_shape():
    s = IIDSource(np.diag([0.9, 0.1]))
    a = np.diag([1.0, 0.0])
    with pytest.raises(ValidationError, match=r"observable a must be 2\^3 x 2\^3 = 8 x 8"):
        ergodicity_gap(s, a, np.eye(8), 3, 10)
    with pytest.raises(ValidationError, match=r"observable b must be 2\^1 x 2\^1"):
        ergodicity_gap(s, a, np.eye(4), 1, 10)
    # |00><00| at m = 2 is the square of the one-site product for an i.i.d. source
    rep = ergodicity_gap(s, np.kron(a, a), np.kron(a, a), 2, 10)
    assert abs(rep.product - 0.81 ** 2) < 1e-12 and rep.gap < 1e-12

