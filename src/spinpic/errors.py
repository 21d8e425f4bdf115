"""Exception hierarchy shared by all spinpic modules."""


class SpinPicError(Exception):
    """Base class for every domain error raised by this package."""


class InputError(SpinPicError, ValueError):
    """Bad input, not a failed verification; the CLI exits 2 on these, 1 on other SpinPicErrors."""


class SingularMatrixError(SpinPicError):
    """The 2x2 step of the theta-null chain, the d0 row with G0.theta = 0 in (a0, b0s), has determinant 0."""


class MixedBasisError(InputError):
    """Classes from different genera or different sides were combined."""


class UnknownLabelError(InputError):
    """A basis label is outside the basis fixed by the genus context."""


class ClassSyntaxError(InputError):
    """A class expression does not match the grammar."""


class SideMismatchError(InputError):
    """A test curve was paired with a class on the wrong side."""


class GenusMismatchError(InputError):
    """Objects built over different genus contexts were combined."""


class NotCompositeError(InputError):
    """The Brill-Noether construction needs g+1 composite."""


class SlopeViolationError(SpinPicError):
    """A user-supplied divisor exceeds the slope bound for its genus."""


class DivisorSpecError(InputError):
    """A divisor specification violates its own invariants."""


class VerificationFailureError(SpinPicError):
    """An internal exact identity that must hold did not."""


class EngineFaultError(SpinPicError):
    """Data that the engine stored breaks one of its own invariants: the engine's fault, not the input's."""
