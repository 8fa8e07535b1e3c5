"""Exception hierarchy shared by all charpflag modules."""


class CharpFlagError(Exception):
    """Base class for all library errors."""


class RankRangeError(CharpFlagError, ValueError):
    """Rank argument outside the supported range, or above the Weyl bound."""


class DatumMismatchError(CharpFlagError, ValueError):
    """Operands belong to different root data."""


class LatticeMembershipError(CharpFlagError, ValueError):
    """Coordinate vector is not a point of the datum's character lattice."""


class InvalidRootDatumError(CharpFlagError, ValueError):
    """Custom root-datum data violate the root-datum axioms."""


class NonSimpleRootError(CharpFlagError, ValueError):
    """Operation requires a simple root."""


class UnsupportedDatumError(CharpFlagError, ValueError):
    """Operation not supported for this datum.

    Raised for type A (GL/SL)-only operations on other data, and for
    operations that need a Weyl vector on a datum without one.
    """


class NotPrimeError(CharpFlagError, ValueError):
    """A prime number was required."""


class IntegerBoundError(CharpFlagError, ValueError):
    """Integer above the bound up to which primality is decided by trial division."""


class DomainError(CharpFlagError, ValueError):
    """Argument outside the domain on which the procedure is defined."""


class ResiduePrimeError(CharpFlagError, ValueError):
    """Residue prime missing for, or in conflict with, the base ring."""


class WeightShapeError(CharpFlagError, ValueError):
    """Weight does not have the coordinate shape the operation expects."""


class DimensionMismatchError(CharpFlagError, ValueError):
    """Matrix dimensions incompatible with the lattice ranks."""


class InternalInconsistencyError(CharpFlagError, RuntimeError):
    """Two independent computations of the same value disagree.

    This signals an implementation bug, never a mathematical outcome.
    """


class _FrozenFieldError(CharpFlagError, AttributeError):
    """Assignment to, or deletion of, an attribute of an immutable value."""
