"""The four workloads, generated from a seed.

The seed draws every source parameter from a fixed range and becomes the
experiment config's `seed`; the block lengths, rates and source families are
fixed, so the work done per round does not depend on the seed.  quclab only
ever sees the generated configs and specs.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("orbit-diag", "orbit-dense", "code-sweep", "cli-roundtrip")

ORBIT_DIAG_N = range(4, 12)      # the n = 11 join is the largest step
ORBIT_DIAG_R = 0.5
ORBIT_DENSE_N = range(8, 10)     # c1 at n = 9 is the largest step
ORBIT_DENSE_R = 0.5
CODE_SWEEP_N = range(12, 17)     # periodic marginals at n = 16 are the largest step
CODE_SWEEP_R = 0.6
CODE_SWEEP_K = 1
# The kept failing row: k = 1, n = 10, floor(nR) = 8.  The k >= 1 score of a
# sequence and of its complement differ by one ulp inside quclab, so the
# lexicographic tie-break is skipped and the code set is wrong for every
# Markov source; see the FOUND line on codes.empirical_entropy_scores.
TIE_FAULT_N = 10
TIE_FAULT_R = 0.8
CLI_N = 9
CLI_R = 0.5


def _round(x: float) -> float:
    return round(float(x), 6)


def _markov(rng) -> dict:
    # asymmetric rows, so a sequence and its complement have different weight
    a = _round(rng.uniform(0.05, 0.2))
    b = _round(rng.uniform(0.3, 0.5))
    return {"kind": "markov", "transition": [[1 - a, a], [b, 1 - b]]}


def _periodic(rng) -> dict:
    pattern = int(rng.integers(1, 31))          # five bits, neither all 0 nor all 1
    return {"kind": "periodic", "cycle": [pattern >> i & 1 for i in range(5)],
            "alphabet_size": 2}


def _iid_probs(rng) -> list:
    p = _round(rng.uniform(0.75, 0.95))
    return [p, 1 - p]


def _dense_sources(rng) -> list:
    """A depolarized Markov source on a non-orthogonal alphabet, and an
    amplitude-damped i.i.d. source with a non-diagonal one-site state."""
    theta = rng.uniform(0.35, 0.75)
    alphabet = {"re": [[1.0, math.cos(theta)], [0.0, math.sin(theta)]]}
    length = rng.uniform(0.6, 0.9)
    polar = rng.uniform(0.4, 1.2)
    azimuth = rng.uniform(0.0, 2 * math.pi)
    x = length * math.sin(polar) * math.cos(azimuth)
    y = length * math.sin(polar) * math.sin(azimuth)
    z = length * math.cos(polar)
    return [
        {"id": "depolarized-markov", "kind": "channel-transformed",
         "inner": {"kind": "classical", "process": _markov(rng), "alphabet": alphabet},
         "channel": {"name": "depolarizing", "p": _round(rng.uniform(0.1, 0.3))}},
        {"id": "damped-iid", "kind": "channel-transformed",
         "inner": {"kind": "iid", "rho_re": [[(1 + z) / 2, x / 2], [x / 2, (1 - z) / 2]],
                   "rho_im": [[0.0, -y / 2], [y / 2, 0.0]]},
         "channel": {"name": "amplitude-damping", "gamma": _round(rng.uniform(0.1, 0.4))}},
    ]


def _per_n(sources: list, ns, **fields) -> list:
    """One experiment config per block length: each is one step."""
    return [{"name": f"n={n}", "config": dict(sources=sources, n_range=[n], **fields)}
            for n in ns]


def inputs(workload: str, seed: int) -> dict:
    """Everything a round of `workload` runs, as plain JSON-ready data."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "orbit-diag":
        sources = [{"id": "iid", "kind": "iid", "probs": _iid_probs(rng)},
                   {"id": "markov", "kind": "classical", "process": _markov(rng)}]
        return {"steps": _per_n(sources, ORBIT_DIAG_N, r=ORBIT_DIAG_R, seed=seed,
                                scheme="c1", projector_mode="orbit")}
    if workload == "orbit-dense":
        return {"steps": _per_n(_dense_sources(rng), ORBIT_DENSE_N, r=ORBIT_DENSE_R,
                                seed=seed, scheme="c1", projector_mode="orbit")}
    if workload == "code-sweep":
        weight = _round(rng.uniform(0.3, 0.7))
        mixture = {"kind": "mixture", "weights": [weight, 1 - weight],
                   "components": [_periodic(rng), {"kind": "iid", "probs": _iid_probs(rng)}]}
        sources = [{"id": "markov", "kind": "classical", "process": _markov(rng)},
                   {"id": "periodic", "kind": "classical", "process": _periodic(rng)},
                   {"id": "mixture", "kind": "classical", "process": mixture}]
        steps = _per_n(sources, CODE_SWEEP_N, r=CODE_SWEEP_R, seed=seed,
                       projector_mode="code", k_order=CODE_SWEEP_K)
        tie = {"id": "markov-tie", "kind": "classical", "process": _markov(rng)}
        steps += [{"name": f"n={TIE_FAULT_N},r={TIE_FAULT_R}",
                   "config": dict(sources=[tie], n_range=[TIE_FAULT_N], r=TIE_FAULT_R,
                                  seed=seed, projector_mode="code", k_order=CODE_SWEEP_K)}]
        return {"steps": steps}
    if workload == "cli-roundtrip":
        return {"cli": {"n": CLI_N, "r": CLI_R, "seed": seed,
                        "sources": _dense_sources(rng)}}
    raise ValueError(f"unknown workload {workload!r}")
