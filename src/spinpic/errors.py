"""Exception hierarchy shared by all spinpic modules."""


class SpinPicError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionMismatchError(SpinPicError):
    """Matrix/vector shapes are inconsistent."""


class SingularMatrixError(SpinPicError):
    """Exact elimination found rank < n."""


class MixedBasisError(SpinPicError):
    """Classes from different genera or different sides were combined."""


class UnknownLabelError(SpinPicError):
    """A basis label is outside the basis fixed by the genus context."""


class ClassSyntaxError(SpinPicError):
    """A class expression does not match the grammar."""


class SideMismatchError(SpinPicError):
    """A test curve was paired with a class on the wrong side."""


class GenusMismatchError(SpinPicError):
    """Objects built over different genus contexts were combined."""


class NotCompositeError(SpinPicError):
    """The Brill-Noether construction needs g+1 composite."""


class SlopeViolationError(SpinPicError):
    """A user-supplied divisor exceeds the slope bound for its genus."""


class DivisorSpecError(SpinPicError):
    """A divisor specification violates its own invariants."""


class VerificationFailureError(SpinPicError):
    """An internal exact identity that must hold did not."""


# Errors that indicate bad input rather than a failed verification; the CLI
# maps these to exit code 2 and everything else under SpinPicError to 1.
USAGE_ERRORS = (
    DimensionMismatchError,
    MixedBasisError,
    UnknownLabelError,
    ClassSyntaxError,
    SideMismatchError,
    GenusMismatchError,
    NotCompositeError,
    DivisorSpecError,
)
