"""Exception types shared across the package."""


class QuclabError(Exception):
    pass


class ValidationError(QuclabError):
    """An operator or process failed a structural invariant."""


class SizeError(QuclabError):
    """A requested construction exceeds the configured dimension cap."""


class ConfigError(QuclabError):
    """Malformed experiment configuration or CLI input."""
