"""Exception types shared across the package."""


class GdpcError(Exception):
    """Base class for all package errors."""


class InvalidMatrix(GdpcError, ValueError):
    """Raised when a matrix argument is non-finite or has the wrong shape."""


class NotPositiveDefinite(GdpcError, ValueError):
    """Raised when a factorization requires positive definiteness and fails.

    ``pivot`` is the zero-based index of the first offending pivot when the
    failure came from a Cholesky factorization, otherwise ``None``.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class UnstableSystem(GdpcError, ValueError):
    """Raised when an operation requires a Schur-stable system matrix."""


class TooShort(GdpcError, ValueError):
    """Raised when a trajectory is shorter than the requested window."""


class ShapeError(GdpcError, ValueError):
    """Raised on dimension mismatches between related objects."""


class ParseError(GdpcError, ValueError):
    """Raised on malformed trajectory files. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class LambdaTooSmall(GdpcError, ValueError):
    """Raised when the robust controller weight is below its certified threshold.

    Carries ``lambda0``, the smallest weight making the inner problem
    concave; from it on the outer problem is convex too.
    """

    def __init__(self, message: str, lambda0: float):
        super().__init__(message)
        self.lambda0 = lambda0


class InfeasibleProblem(GdpcError, RuntimeError):
    """Raised when a controller's underlying QP is certified infeasible."""


class ConfigError(GdpcError, ValueError):
    """Raised on invalid or inconsistent experiment configuration."""
