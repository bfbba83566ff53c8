"""Exception types shared across the package, all rooted at :class:`OplipError`,
and :func:`integer_at_least`, the integer-argument check that raises one."""

import operator


class OplipError(Exception):
    """Root of every oplip error; each subclass also keeps its builtin base."""


class DimMismatchError(OplipError, ValueError):
    """Operands have incompatible dimensions."""


class NoConvergenceError(OplipError, RuntimeError):
    """A joint basis fails to reconstruct the tuple within ``RECONSTRUCTION_TOL``."""


class NonFiniteError(OplipError, ValueError):
    """A NaN or infinity: a scalar function's value on a spectrum point, or a matrix entry."""


class BadLawError(OplipError, ValueError):
    """Unsupported spectrum law for the random tuple generator."""


class BadExponentError(OplipError, ValueError):
    """Exponent outside the admissible range for the requested norm."""


class DomainError(OplipError, ValueError):
    """Argument outside the function's domain."""


class GuardViolationError(OplipError, ValueError):
    """A runtime guard (cheap precondition) was violated."""


class AliasRiskError(OplipError, ValueError):
    """The requested grid is too small to represent all occurring frequencies."""


def integer_at_least(name: str, value, low: int) -> int:
    """``value`` as a Python int, or DomainError naming ``name`` unless it is an integer >= low.

    Python and numpy integers pass; a float does not, even an integral one, so
    2.5 is never truncated to 2.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value}") from None
    if number < low:
        raise DomainError(f"{name} must be >= {low}, got {number}")
    return number
