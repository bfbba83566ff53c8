"""Exception types shared across the package, all rooted at :class:`OplipError`."""


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
