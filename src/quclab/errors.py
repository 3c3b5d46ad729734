"""Exception types shared across the package, the one memory budget that
every size check measures against, and the mapping of numpy solver failures
to row errors."""

import numpy as np

# Bytes one construction may hold at its peak.  3 GiB admits an n = 14
# non-diagonal row (1.74 GB) on a 7 GB machine, and refuses the n = 14
# marginal (5 GiB) before it is allocated.
MEMORY_BUDGET = 3 * 2 ** 30


class QuclabError(Exception):
    pass


class ValidationError(QuclabError):
    """An operator or process failed a structural invariant."""


class SizeError(QuclabError):
    """A requested construction would exceed the memory budget."""


class ConfigError(QuclabError):
    """Malformed experiment configuration or CLI input."""


def check_budget(nbytes: int, what: str) -> None:
    """Raise SizeError when `what` needs more than MEMORY_BUDGET bytes.

    Each caller passes the peak working set of the construction it is about
    to allocate, temporaries included, computed from the shapes alone.
    """
    if nbytes > MEMORY_BUDGET:
        mib = -(-nbytes // 2 ** 20)  # past 2^64 a power of two: str() stops at 4300 digits
        size = mib if mib <= 2 ** 64 else f"over 2^{(mib - 1).bit_length() - 1}"
        raise SizeError(f"{what} needs {size} MiB, over the "
                        f"{MEMORY_BUDGET // 2 ** 20} MiB memory budget")


class solving:
    """Context manager: a numpy LinAlgError in the block (a solver that does
    not converge) is a ValidationError naming `what`, a row error, not an
    abort.  A class, as the join enters it once per SVD."""

    def __init__(self, what: str):
        self.what = what

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, np.linalg.LinAlgError):
            raise ValidationError(f"{self.what} failed ({exc})") from None
