"""Tests of the reference computations themselves, against closed forms.

Run with `python3 -m pytest perfbench/test_oracles.py`; run.py also runs
them at the start of every benchmark run.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import oracles


def schur_weyl_rank(n: int, g: int) -> int:
    """Join rank of the union of binary type classes with min(#0, #1) < g."""
    return sum((math.comb(n, s) - (math.comb(n, s - 1) if s else 0)) * (n - 2 * s + 1)
               for s in range(g))


def multi_index_kraus_sum(kraus: list, rho: np.ndarray, n: int) -> np.ndarray:
    """sum over (k_1..k_n) of (A_k1 x .. x A_kn) rho (..)^dagger, term by term."""
    out = np.zeros_like(rho, dtype=complex)
    for ks in np.ndindex(*(len(kraus),) * n):
        a = np.ones((1, 1))
        for k in ks:
            a = np.kron(a, kraus[k])
        out += a @ rho @ a.conj().T
    return out


def test_closure_rank_matches_schur_weyl_formula():
    for n in (6, 8, 10):
        weight = np.array([bin(i).count("1") for i in range(2 ** n)])
        for g in (1, 2, 3):
            members = np.flatnonzero(np.minimum(weight, n - weight) < g)
            rank = oracles.collective_closure(members, n).shape[1]
            assert rank == schur_weyl_rank(n, g), (n, g, rank)


def test_closure_is_invariant_and_orthonormal():
    n = 7
    q = oracles.collective_closure(oracles.code_members(2, n, 0.5, 0), n)
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
    lowering = sum(np.kron(np.kron(np.eye(2 ** i), [[0, 1], [0, 0]]), np.eye(2 ** (n - i - 1)))
                   for i in range(n))
    for j in (lowering, lowering.T):
        leak = j @ q - q @ (q.T @ (j @ q))
        assert np.abs(leak).max() < 1e-12


def _exact_binary_k0_measure(n: int, r: float, p1: Fraction) -> Fraction:
    """Type entropy h(j/n) rises with min(j, n - j), so the k = 0 order is
    (min(#0, #1), lexicographic) and needs no floating point."""
    order = sorted(range(2 ** n), key=lambda i: (min(bin(i).count("1"),
                                                     n - bin(i).count("1")), i))
    code = order[:2 ** math.floor(n * Fraction(str(r)))]
    return sum(p1 ** bin(i).count("1") * (1 - p1) ** (n - bin(i).count("1")) for i in code)


def test_code_measure_matches_fraction_exact_iid_k0():
    for n, r, p1 in [(8, 0.5, Fraction(1, 10)), (9, 0.6, Fraction(3, 10)),
                     (10, 0.5, Fraction(1, 4))]:
        exact = _exact_binary_k0_measure(n, r, p1)
        spec = {"kind": "iid", "probs": [float(1 - p1), float(p1)]}
        assert abs(oracles.code_measure(spec, n, r, 0) - float(exact)) < 1e-12, (n, r)


def test_complementary_sequences_tie_exactly():
    n = 10
    scores = oracles.conditional_entropy_scores(oracles.sequences(2, n), 2, 1)
    complement = (2 ** n - 1) - np.arange(2 ** n)
    assert np.array_equal(scores, scores[complement])


def test_per_site_contraction_matches_multi_index_kraus_sum():
    rng = np.random.default_rng(7)
    n = 3
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    for channel in ({"name": "depolarizing", "p": 0.3},
                    {"name": "amplitude-damping", "gamma": 0.2}):
        kraus = oracles.kraus_operators(channel)
        fast = oracles.apply_per_site(oracles.superoperator(kraus), rho, n)
        assert np.abs(fast - multi_index_kraus_sum(kraus, rho, n)).max() < 1e-14


def test_markov_density_matches_sequence_sum():
    n = 4
    theta = 0.5
    vecs = np.array([[1.0, math.cos(theta)], [0.0, math.sin(theta)]])
    process = {"kind": "markov", "transition": [[0.8, 0.2], [0.4, 0.6]]}
    spec = {"kind": "classical", "process": process, "alphabet": {"re": vecs.tolist()}}
    probs = oracles.sequence_probs(process, n)
    brute = 0
    for x, row in enumerate(oracles.sequences(2, n)):
        psi = np.ones(1)
        for a in row:
            psi = np.kron(psi, vecs[:, a])
        brute = brute + probs[x] * np.outer(psi, psi)
    assert np.abs(oracles.density(spec, n) - brute).max() < 1e-14


def test_c2_squared_fidelity_equals_acceptance():
    # F(rho, P rho P / tr(P rho))^2 = tr(P rho) for every projector P; the
    # eigh route carries ~1e-8 of rounding from the square roots of the zero
    # eigenvalues of sqrt(rho) sigma sqrt(rho)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    q, _ = np.linalg.qr(rng.standard_normal((16, 5)))
    assert abs(oracles.c2_fidelity_squared(q @ q.T, rho) - oracles.acceptance(q, rho)) < 1e-6


def run_all() -> list[str]:
    """Run every test here; one message per failing test."""
    failures = []
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as exc:
                failures.append(f"oracle self-test {name} failed: {exc}")
    return failures
