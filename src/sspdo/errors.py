"""Exception types shared across the package."""


class SspdoError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(SspdoError, ValueError):
    """Array shapes are inconsistent (square A, matching b/c/weights lengths)."""


class ZeroRowViolationError(SspdoError, ValueError):
    """A has a zero row at index >= 2, or more than one zero row."""


class AbscissaMismatchError(SspdoError, ValueError):
    """Supplied abscissas disagree with the row sums of A."""


class SingularMatrixError(SspdoError, ArithmeticError):
    """I + r*A has no usable inverse: it is exactly singular, has a
    non-finite entry, or has a pivot of magnitude below tolerance."""


class NonpositiveCError(SspdoError, ValueError):
    """A positive SSP coefficient is required for this conversion."""


class StructureError(SspdoError, ValueError):
    """Tableau lacks the structure required by the requested construction."""


class DegreeTooHighError(SspdoError, ValueError):
    """Polynomial degree exceeds the certifier's limit."""


class NonfiniteStateError(SspdoError, FloatingPointError):
    """Integration produced an overflow or NaN."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class InvalidStepSizeError(SspdoError, ValueError):
    """Step size must be positive."""


class ParseError(SspdoError, ValueError):
    """Tableau file could not be parsed; message carries line/field context."""


class InvalidArgumentError(SspdoError, ValueError):
    """A numeric argument (stage count, order, degree, r, point count, dense
    points per step) is out of range, a coefficient is not finite, or
    polynomial coefficients are not one-dimensional."""


class UnknownNameError(SspdoError, KeyError):
    """No built-in method or problem has this name."""

    # KeyError.__str__ quotes the message; print it as written
    __str__ = Exception.__str__


class NumericalCycleError(SspdoError, RuntimeError):
    """The LP solver stopped without a feasibility verdict: at its iteration
    bound, or by a numerical breakdown.  The message carries the solver's
    status, its iteration count and its own message."""
