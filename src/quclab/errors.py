"""Exception types shared across the package, and the one memory budget
that every size check measures against."""

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
        raise SizeError(f"{what} needs {-(-nbytes // 2 ** 20)} MiB, over the "
                        f"{MEMORY_BUDGET // 2 ** 20} MiB memory budget")
