"""Exception types shared across the package."""


class FussDeformError(Exception):
    """Base class for package-specific failures."""


class InconsistencyError(FussDeformError):
    """Two independent routes to the same quantity disagreed.

    Raised when a cross-checked computation (closed form vs. recurrence,
    finite-section positivity vs. the classification boundary, ...) produces
    contradictory answers.  This always indicates a bug or an out-of-contract
    input, never a tolerance issue: the cross-checks compare exact rationals.
    """


class QuadratureError(FussDeformError):
    """The adaptive quadrature scheme failed to reach the requested tolerance."""


class BracketingError(FussDeformError):
    """A bracketing / monotonicity precondition failed during root isolation."""


class DigitLimitError(FussDeformError, ValueError):
    """An exact value has more digits than Python converts to text (its int-to-str limit)."""
