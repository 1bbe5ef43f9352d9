"""Exception types shared across the package."""


class QPascalError(Exception):
    """Base class for all package-specific errors."""


class RegimeError(QPascalError):
    """The operation requires q on a different side of 1."""


class NotSuperUnitError(RegimeError):
    """The 0/1 flip reduction applies only for q > 1."""


class TooLargeError(QPascalError):
    """Enumeration would exceed the configured guard (see QB_MAX_ENUM)."""


class InvalidArrayError(QPascalError):
    """A triangular array or law violates its defining constraints."""


class NonIntegerParamsInExactMode(QPascalError):
    """Exact urn computations need integer strength parameters."""


class FieldConstructionError(QPascalError):
    """Invalid finite-field specification."""


class NotPrimeError(FieldConstructionError):
    """The characteristic must be prime."""


class NotIrreducibleError(FieldConstructionError):
    """The modulus polynomial must be irreducible."""
