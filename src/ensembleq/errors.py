"""Exception taxonomy shared across the package.

Every error raised by the library is one of these four kinds, so callers
(including the CLI) can map failures to exit codes without string matching.
"""

from contextlib import contextmanager


class EnsembleQError(Exception):
    """Base class for all library errors."""


class InvalidInput(EnsembleQError, ValueError):
    """Malformed or out-of-contract input: bad matrices, bad JSON, bad flags."""


class PreconditionViolated(EnsembleQError, ValueError):
    """Input is well-formed but violates an operation's precondition."""


class NumericalFailure(EnsembleQError, RuntimeError):
    """A numerical routine failed to converge or produced an unusable result."""


class ResourceLimit(EnsembleQError):
    """Requested computation exceeds a hard dimension/size cap."""


@contextmanager
def malformed(what: str):
    """Re-raise a bad conversion inside a JSON decoder as InvalidInput."""
    try:
        yield
    except EnsembleQError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed {what} JSON: {exc}") from exc
