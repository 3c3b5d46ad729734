"""Hypothesis runs a fixed set of examples with no deadline and no example
database, so property tests neither flake nor vary between runs or machines."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
