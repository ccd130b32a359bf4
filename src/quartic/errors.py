"""Exception hierarchy for the quartic solver stack."""


class QuarticError(Exception):
    """Base class for all package errors."""


class NonFinite(QuarticError):
    """Input matrix or vector contains NaN or Inf entries."""


class FactorizationFailure(QuarticError):
    """Eigen/Schur factorization residual exceeded tolerance."""


class DimensionMismatch(QuarticError):
    """Operand shapes are inconsistent."""


class SpectrumOnCut(QuarticError):
    """An eigenvalue lies on (or too close to) the branch cut (-inf, 0]."""


class SingularOrIllConditioned(QuarticError):
    """Guarded inversion refused: condition estimate exceeds the cap."""


class BranchCut(QuarticError):
    """Spectral parameter maps onto the square-root branch cut.

    ``lam`` is the refused parameter, when known.
    """

    def __init__(self, message: str = "", lam: complex | None = None):
        super().__init__(message)
        self.lam = lam


class FrameSingular(QuarticError):
    """A frame operator (Z, W, U or V) is not invertible.

    For the derivative/value condition families this is the numerical
    witness that the spectral parameter may belong to the spectrum.
    """


class NotInResolventSet(QuarticError):
    """Resolvent evaluation failed: parameter rejected or frame singular.

    ``lam`` is the refused parameter, when known.
    """

    def __init__(self, message: str = "", lam: complex | None = None):
        super().__init__(message)
        self.lam = lam


class SingularSystem(QuarticError):
    """Collocation system is numerically singular at this parameter."""


class CapExceeded(QuarticError):
    """Requested dense-oracle size exceeds the configured cap."""


class DegenerateRoots(QuarticError):
    """Characteristic roots coincide; the scalar oracle needs distinct roots."""


class ContourTooClose(QuarticError):
    """A contour node hit ill-conditioned resolvent territory."""


class QuadratureNotConverged(QuarticError):
    """Contour quadrature self-error did not reach the requested tolerance."""


class StepRejected(QuarticError):
    """Time-stepping resolvent shift falls outside the resolvent set."""


class SectorAngleExceeded(QuarticError):
    """Operator sector half-angle is too large for analytic time stepping."""


class ConfigError(QuarticError):
    """Run configuration is invalid or refers to missing files."""
