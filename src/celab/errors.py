"""Exception types shared across the package, and `COND_LIMIT`."""


class CelabError(Exception):
    """Base class for all celab errors."""


class InvalidArgumentError(CelabError, ValueError):
    """An argument violates a documented precondition."""


class GenerationFailureError(CelabError):
    """Random generation could not satisfy a constraint after retries."""


class NumericalFailureError(CelabError):
    """A linear-algebra operation failed (singular or ill-conditioned system)."""


# The largest condition number of a system that LS and the equalizer solve.
COND_LIMIT = 1e12


class TrainingDivergenceError(CelabError):
    """Training produced a non-finite loss or channel weight."""


class ResourceLimitError(CelabError):
    """A configured resource cap (the shifting IIL's cache bytes) was exceeded."""


class DegenerateRatioError(CelabError):
    """A classifier output contained a zero or non-finite probability, making a
    ratio undefined."""


class ConfigError(CelabError):
    """An experiment config file is malformed or out of range."""
