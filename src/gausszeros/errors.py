"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: domain errors exit 2, numerical
failures exit 3, configuration problems exit 4.  Numerical failures are
an uncertified quadrature and a two-point determinant that vanishes away
from the diagonal; path sampling has no failure mode, because its
spectral weights are non-negative by construction.
"""


class GaussZerosError(Exception):
    """Base class for all library errors."""


class DomainError(GaussZerosError):
    """Inputs are outside the mathematical domain of an operation."""


class NumericsError(GaussZerosError):
    """A numerical procedure failed to reach its target accuracy."""


class ConfigError(GaussZerosError):
    """A run configuration is malformed."""


class OrderUnavailable(DomainError):
    """A derivative order beyond the model's declared smoothness was requested."""


class DegenerateDensity(DomainError):
    """A spectral density with vanishing mass or second moment."""


class DegenerateConfiguration(DomainError):
    """The Gaussian vector underlying a density evaluation is (numerically) degenerate."""


class NotPSD(DomainError):
    """A matrix expected to be positive semi-definite is not."""


class SeparationTooSmall(DomainError):
    """Cluster blocks are closer than the minimum separation of the estimate."""


class GroundSetMismatch(DomainError):
    """Two partitions do not share the same ground set."""


class SizeCap(DomainError):
    """A combinatorial or memory size limit was exceeded."""


class IntervalsOverlap(DomainError):
    """Counting intervals of a k-point estimate overlap or leave the window."""


class WindowTooSmall(DomainError):
    """The simulation window does not cover the support of a rescaled test function."""


class QuadratureNotConverged(NumericsError):
    """A quadrature could not certify the requested absolute tolerance."""


class NearSingular(NumericsError):
    """The two-point determinant vanished away from the diagonal."""
