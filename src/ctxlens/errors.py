"""Exception types shared across the package."""


class CtxlensError(Exception):
    """Base class for errors raised by this package."""


class VocabMismatch(CtxlensError, ValueError):
    """Two distributions (or a distribution and a token) disagree on vocab size."""


class InvalidDistribution(CtxlensError, ValueError):
    """Probabilities are negative, wrong shape, or do not sum to one."""


class StrategyError(CtxlensError, ValueError):
    """Malformed decoding strategy (bad kind, missing or out-of-range parameter)."""


class InsufficientData(CtxlensError, ValueError):
    """Not enough usable points for a fit or an aggregate."""


class SequenceTooShort(CtxlensError, ValueError):
    """Sequence is too short for the requested prefix or probe."""


class NotLabelable(CtxlensError, ValueError):
    """An oracle could not assign a short/long label to the sequence."""


class BackendError(CtxlensError, RuntimeError):
    """A backend call failed after retries.

    Carries retry metadata so callers can report what was attempted.
    """

    def __init__(self, message: str, *, attempts: int = 1, cause: Exception | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.cause = cause
        # Probe loops attach the grid points evaluated before the failure.
        self.partial_trace: list | None = None
        # A batch of contexts attaches the distributions fetched before the context that failed.
        self.fetched: list | None = None

    @property
    def batch_index(self) -> int | None:
        """The failed context's position in its batch, or None if the call was not a batch."""
        return None if self.fetched is None else len(self.fetched)


class DataError(CtxlensError, ValueError):
    """Corpus or input file is missing, malformed, or empty."""


class UsageError(CtxlensError, ValueError):
    """Invalid command-line arguments or option combinations."""
