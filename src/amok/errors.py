"""Exception hierarchy shared by all amok modules.

Every concrete error derives from exactly one of ``InputError`` and
``NumericalError``, which fix its command-line exit code (2 and 3).
"""


class AmokError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AmokError):
    """The input is malformed or outside what the command accepts."""


class NumericalError(AmokError):
    """A computation on accepted input failed.

    This includes the kernel checks ``NotUnitary`` and ``NotHermitian``
    on a matrix the predicates accepted at --tol-pred, e.g. a path that
    cannot be built at --tol-path.
    """


# --- numerical kernel ---

class NotHermitian(NumericalError):
    pass


class NotUnitary(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass


class DomainError(NumericalError):
    """Scalar function undefined at a (clipped) eigenvalue."""


# --- model / element level ---

class ShapeMismatch(InputError):
    pass


class AlgebraMismatch(InputError):
    pass


class LevelMismatch(InputError):
    pass


class ZeroOperand(InputError):
    """Norm-orthogonality is only defined for nonzero positive operands."""


# --- equivalence engine ---

class NotProjection(InputError):
    pass


class NotPartialUnitary(InputError):
    pass


class Unsupported(InputError):
    """Input falls outside the fragment this model can decide."""


class SourceMismatch(InputError):
    """The input witnesses do not share a source projection."""


class PredicateFailure(NumericalError):
    """A derived sample failed its domain predicate.

    Carries the index of the offending sample when applicable.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class PreconditionFailure(InputError):
    """A named precondition clause was violated."""


# --- groups / morphisms ---

class NotUnital(InputError):
    pass


# --- CLI / parsing ---

class SpecParseError(InputError):
    pass
