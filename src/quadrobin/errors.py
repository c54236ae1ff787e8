"""Exception types shared across the package."""


class QuadRobinError(Exception):
    """Base class for all package errors."""


class DomainError(QuadRobinError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterDomainError(DomainError):
    """Quadrilateral parameters violate c > 0, 0 < S1 < 2S or S > 0, or a
    sampling count (rotations, samples per edge) is below 1."""


class GeometryError(QuadRobinError):
    """Degenerate geometry (collinear vertices, zero-length edges, ...)."""


class ContractError(QuadRobinError):
    """A precondition between cooperating components was violated."""


class EigenSolveError(QuadRobinError, RuntimeError):
    """Eigenvalue solver failed to converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ConditioningError(EigenSolveError):
    """A derivative solve too ill-conditioned to trust: the spectral gap is
    too small, or the eigenvector-derivative solve failed its residual check."""

    def __init__(self, message, gap=None, diagnostics=None):
        super().__init__(message, diagnostics)
        self.gap = gap
