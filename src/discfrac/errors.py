"""Exception hierarchy shared by all modules."""


class DiscfracError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DiscfracError):
    """An argument lies outside the domain an operation is defined on."""


class PoleAmbiguous(DiscfracError):
    """Falling factorial with both gamma arguments at poles and a
    non-natural exponent; no limiting value is defined."""


class BackendOverflow(DiscfracError):
    """Exact-rational value grew past the configured bit cap."""


class UnitMismatch(DiscfracError):
    """Exact values with different gamma monomials were added or compared."""


class GridTooShort(DiscfracError):
    """The input grid cannot support the requested operator output."""


class EmptyValues(DiscfracError):
    """A grid function was constructed with no values."""


class UsageError(DiscfracError):
    """Arguments that contradict each other or repeat a value (exit 2)."""


class DirectFormIntegerOrder(UsageError):
    """The single-sum (direct) difference form requires a non-integer order."""


class BudgetExceeded(DiscfracError):
    """A search campaign would exceed its evaluation budget."""
