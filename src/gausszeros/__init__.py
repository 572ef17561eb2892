"""Zero statistics of stationary Gaussian processes.

k-point intensities computed through divided differences, the variance
growth constant of the zero count, central-moment predictions, and Monte
Carlo verification via exact path simulation.
"""

from .conditioning import KacRiceContext, MonteCarloSpec, assemble_context, pi_k
from .densities import (ClusteringDefect, DensityResult, VanishingConstant,
                        clustering_defect, clustering_ratio, rho_k,
                        rho_with_partition, vanishing_constant)
from .divdiff import (divided_diff_vector, double_divided_diff,
                      double_divided_diff_matrix, multiplicities,
                      newton_matrix, snap_configuration)
from .errors import (ConfigError, DegenerateConfiguration, DegenerateDensity,
                     DomainError, GaussZerosError, GroundSetMismatch,
                     IntervalsOverlap, NearSingular, NotPSD,
                     NumericsError, OrderUnavailable, QuadratureNotConverged,
                     SeparationTooSmall, SizeCap, WindowTooSmall)
from .models import (CorrelationModel, QuadratureSpec, SpectralDensity,
                     SpectralTableModel, get_model, load_spectral_table,
                     normalize_from_spectral_density, tail_norm)
from .partitions import (IndexPartition, adapted_subsets, cluster_partition,
                         enumerate_pair_partitions, enumerate_partitions,
                         predicted_central_moment)
from .simulation import (MomentEstimate, SimulationSpec, ZeroSample,
                         ZeroSets, clt_diagnostic, empirical_k_point, empirical_moments,
                         linear_statistic, replicate_statistics, zero_samples)
from .variance import (TestFunction, expected_linear_statistic,
                       predicted_covariance, sigma_lower_bound, sigma_squared,
                       two_point_F)

__version__ = "0.1.0"
