"""Exception hierarchy shared by the whole package.

Exit-code contract of the CLI: bad input maps to 2, exhausted budgets
and fuel map to 3, everything else that completes reports verdicts
inside the report and exits 0.
"""

ENUMERATION_CAP = 1_000_000  # the most objects or maps an enumerable instance lists at once


class ProtexError(Exception):
    """Base class for all package errors."""


class ParseError(ProtexError):
    """Invalid external input; carries the path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class InvariantViolation(ProtexError):
    """A constructed value failed one of its structural invariants; every map,
    read from input or built by the library, must send null directions to null."""


class NotNonExpanding(ProtexError):
    """Operation requires a map of operator norm at most one."""


class NotComposable(ProtexError):
    """Consecutive morphisms do not share the required object."""


class NotSpanning(ProtexError):
    """The supplied vectors do not span the target module."""


class SolverUnavailable(ProtexError):
    """The category instance lacks the capability needed (enumeration, solver)."""


class BudgetExceeded(ProtexError):
    """An enumeration or audit exceeded its configured budget."""


class FuelExhausted(ProtexError):
    """Factorization ran out of fuel; carries the partial certificate."""

    def __init__(self, message: str, certificate=None):
        self.certificate = certificate
        super().__init__(message)
