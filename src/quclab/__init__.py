"""Numerical laboratory for universal compression of stationary quantum sources."""

from .errors import ConfigError, QuclabError, SizeError, ValidationError
from .operators import hermitian_eig, partial_trace, validate_density
from .processes import (Distribution, IIDProcess, MarkovProcess,
                        MixtureProcess, PeriodicProcess,
                        ergodic_decomposition_l, high_entropy_components)
from .codes import BlockCode, build_code, code_measure
from .channels import (KrausChannel, amplitude_damping, apply_tensor_power,
                       dephasing, depolarizing, heisenberg_dual,
                       identity_channel, validate_channel)
from .sources import (ChannelTransformedSource, ClassicallyCorrelatedSource,
                      IIDSource, QuantumAlphabet, abelian_restriction,
                      check_consistency, check_stationarity,
                      conditional_expectation, ergodicity_gap,
                      verify_invariance)
from .info import (entanglement_fidelity, fidelity, mean_entropy,
                   von_neumann_entropy)
from .projectors import (Schedule, UniversalProjector, acceptance_probability,
                         assemble_q, rate_upper_bound, schedule)
from .harness import (ExperimentConfig, ReportRow, build_source, compress_c1,
                      compress_c2, run_experiment)

__version__ = "0.1.0"
