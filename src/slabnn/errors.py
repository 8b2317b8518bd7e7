"""Exception types shared across the package.

Everything derives from SlabnnError so callers can catch the package's
failures in one clause; the subclasses match the failure families the
individual modules document (shape mismatches, domain violations,
numeric blow-ups, malformed files, bad configs).
"""


class SlabnnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SlabnnError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class DomainError(SlabnnError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NumericError(SlabnnError, ArithmeticError):
    """A computation produced non-finite values or lost validity."""


class FormatError(SlabnnError, ValueError):
    """A file does not conform to its declared binary or text format."""


class ConfigError(SlabnnError, ValueError):
    """A run configuration is invalid; the message lists every violation."""
