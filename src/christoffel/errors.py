"""Exception types shared across the toolkit."""


class ChristoffelError(Exception):
    """Base class for all toolkit errors."""


class ResolutionTooLow(ChristoffelError):
    """Grid resolution below the supported minimum."""


class BandLimitExceeded(ChristoffelError):
    """Requested band limit not resolvable on the given grid."""


class OrthogonalityViolation(ChristoffelError):
    """Right-hand side has a degree-1 component, so no solution exists.

    Carries the defect vector (integrals of x_i * f over the sphere).
    """

    def __init__(self, defect):
        self.defect = defect
        super().__init__(f"degree-1 orthogonality violated, defect={defect}")


class SingularEvaluation(ChristoffelError):
    """Kernel evaluated at (or beyond) a singular configuration."""


class InvalidDimension(ChristoffelError):
    """Sphere dimension outside the supported range."""


class InvalidParameter(ChristoffelError):
    """Parameter outside its documented range."""


class NotPositive(ChristoffelError):
    """Field required to be strictly positive is not."""


class NonConvergence(ChristoffelError):
    """Iterative solver failed to reach tolerance.

    Carries the best iterate found so that callers can inspect diagnostics.
    """

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class PositivityLost(ChristoffelError):
    """Solver iterate lost strict positivity."""


class ParseError(ChristoffelError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class GridMismatch(ChristoffelError):
    """Input data does not match the expected grid layout."""
