"""Exception hierarchy shared by all modules.  An error is its message: a
refusal (UnsupportedInstance) or a bad document (ParseError) carries no
other field."""


class DecideError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatchError(DecideError):
    """Arithmetic between elements of incompatible field contexts."""


class PrecisionExceeded(DecideError):
    """A number outgrew the precision or size the engine handles: an
    interval refinement hit the configured precision cap, a dyadic sum
    needed an exponent gap past the alignment limit, or a rational was too
    long to print.

    Raised as a resource error; callers must never turn this into a verdict.
    """


class IntervalStraddlesZero(DecideError):
    """A reciprocal was taken of an interval containing zero.

    Refinement loops treat this as "escalate precision", not as failure.
    """


class ScanCapExceeded(DecideError):
    """An exact term scan hit the configured index cap."""


class UnsupportedInstance(DecideError):
    """The instance falls outside the class a decider can handle.

    The one refusal of both limit oracles and of the algebra below them;
    the message says why, and the CLI reports it with exit code 2.
    """


class ParseError(DecideError):
    """An instance or certificate document failed validation; the message names where."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
