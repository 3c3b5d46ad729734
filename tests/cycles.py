"""A deterministic cycle observed from a restricted set of phases, as a raw
hidden-Markov process: the cycle's own (initial, T) form with the initial
vector uniform on the admitted phases only."""

import numpy as np

from quclab.processes import ClassicalProcess, PeriodicProcess


def phase_subset(cycle, phases, L=None) -> ClassicalProcess:
    """The cycle from a uniformly random phase in `phases`.  Its `prob(seq)`
    counts the admitted phases whose cycle reads seq, without the transfer
    form."""
    T = PeriodicProcess(cycle, L=L).T
    initial = np.zeros(len(cycle))
    initial[list(phases)] = 1.0 / len(phases)
    p = ClassicalProcess(initial, T)

    def prob(seq) -> float:
        hits = sum(1 for ph in phases if all(
            int(s) == cycle[(ph + t) % len(cycle)] for t, s in enumerate(seq)))
        return hits / len(phases)

    p.prob = prob
    return p
