"""k-point intensities of the zero set, vanishing-order constant, clustering.

The k-point intensity rho_k is evaluated through its divided-difference
form: for a partition of the configuration into blocks, the intensity is
the square-rooted Vandermonde factor over blocks times a conditional
absolute moment over the square root of a block-covariance determinant.
In exact arithmetic any partition whose cross-block points stay distinct
gives the same value (in floating point not on mixed-scale blocks, see
`rho_k`); the cluster partition at scale 1 keeps the matrices well
conditioned on and near the diagonal.  The vanishing constant is the same
quotient on the partition of coincident points, without the Vandermonde
factor, with one moment coordinate per block raised to the block size.
Each result names how `pi_k` took its moment (`moment_route`) and states
its error: 0 for a closed form, a quadrature and rounding bound for the
integration-by-parts recursion (up to 5 coordinates), and the lattice's
standard error for 6 or more coordinates, the only moments still sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import divdiff
from .conditioning import (_EPS, MonteCarloSpec, _moment_route, assemble_context,
                           pi_k)
from .errors import ConfigError, DegenerateConfiguration, NotPSD, SeparationTooSmall
from .models import tail_norm
from .partitions import IndexPartition, cluster_partition

__all__ = [
    "DensityResult",
    "VanishingConstant",
    "rho_k",
    "rho_with_partition",
    "vanishing_constant",
    "ClusteringDefect",
    "clustering_defect",
    "clustering_ratio",
]


@dataclass(frozen=True)
class DensityResult:
    """One intensity evaluation: value, factors, partition, error, routes.

    `n_stderr` is the stated error of rho; `moment_route` names how
    `pi_k` took the moment: "closed-form", "recursion" or "lattice".
    """

    rho: float
    d_value: float
    n_value: float
    partition_used: IndexPartition
    vandermonde_factor: float
    n_stderr: float = 0.0
    routes: tuple = ()
    moment_route: str = ""


@dataclass(frozen=True)
class VanishingConstant:
    """Diagonal limit constant of the rescaled k-point intensity."""

    value: float
    partition: IndexPartition
    stderr: float = 0.0
    moment_route: str = ""


@dataclass(frozen=True)
class ClusteringDefect:
    """Factorization of the joint intensity over well-separated blocks.

    ratio is the product of the block intensities over the joint one, and
    defect = ratio - 1, with `error` its stated error: the relative errors
    of the intensities, added, plus the rounding of the quotient.  `bound`
    is tail-norm^(1/2) at the blocks' separation, the scale of the
    expected defect.
    """

    ratio: float
    defect: float
    error: float
    bound: float


def _vandermonde_factor(x: np.ndarray, partition: IndexPartition) -> float:
    """prod over blocks of prod_{i != j in block} |x_i - x_j|^(1/2)."""
    out = 1.0
    for block in partition.blocks:
        pts = x[list(block)]
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                out *= abs(pts[a] - pts[b])
    return out


def _kac_rice(ctx, mc: MonteCarloSpec | None, first=None, powers=None):
    """Conditional moment of lam[first, first], its stated error, the
    Gaussian normalizer (2 pi)^(k/2) det(theta)^(1/2) of a context, and the
    moment's route."""
    if ctx.lam is None:
        raise DegenerateConfiguration(
            "block covariance is numerically singular: two points in distinct "
            "blocks coincide, or the model's finite marginals are singular "
            "(correlation does not decay)")
    lam = ctx.lam if first is None else ctx.lam[np.ix_(first, first)]
    try:
        moment, err = pi_k(lam, mc, powers)
    except NotPSD as exc:  # name the blocks whose rows lam came from
        gap = min(np.diff(np.sort(np.take(ctx.x, b))).min(initial=math.inf)
                  for b in ctx.partition.blocks)
        raise NotPSD(f"{exc}: partition {ctx.partition}, routes {','.join(ctx.routes)}"
                     f", smallest gap in a block {gap:.3g}") from exc
    denom = (2.0 * math.pi) ** (len(ctx.x) / 2.0) * math.sqrt(ctx.d_value)
    route = _moment_route([1] * lam.shape[0] if powers is None else powers)
    return moment, err, denom, route


def rho_k(model, points, mc: MonteCarloSpec | None = None) -> DensityResult:
    """k-point intensity of the zero set, continuous across the diagonal.

    The partition is chosen as the scale-1 cluster partition of the
    configuration, which keeps the underlying Gaussian vector uniformly
    non-degenerate.  The value depends on that choice on mixed-scale blocks
    (ROADMAP item 1): cauchy at [0, 1e-4, 0.6001] gives 3.4406e-6 on one
    Newton block with a near-tie, 3.7735e-6 on the partition {0,1},{2}.
    """
    x = divdiff.snap_configuration(points)
    return rho_with_partition(model, x, cluster_partition(x, 1.0), mc)


def rho_with_partition(model, points, partition: IndexPartition,
                       mc: MonteCarloSpec | None = None) -> DensityResult:
    """Same intensity as rho_k but assembled through the caller's partition.

    Degenerates exactly when two points in distinct blocks coincide.
    """
    ctx = assemble_context(model, points, partition)
    n_value, n_err, denom, route = _kac_rice(ctx, mc)
    vf = _vandermonde_factor(np.asarray(ctx.x), ctx.partition)
    return DensityResult(rho=vf * n_value / denom, d_value=ctx.d_value,
                         n_value=n_value, partition_used=ctx.partition,
                         vandermonde_factor=vf, n_stderr=n_err / denom * vf,
                         routes=ctx.routes, moment_route=route)


def vanishing_constant(model, points, mc: MonteCarloSpec | None = None
                       ) -> VanishingConstant:
    """Limit of rho_k divided by its diagonal Vandermonde factor.

    The Kac-Rice quotient of rho_with_partition on the partition of
    exactly-coincident points, without the Vandermonde factor.  On a block
    of m coincident points every one-node extension is the same atom
    f^(m)(site) / m!, so the moment keeps the first extension of each
    block, raised to the power m.
    """
    y = divdiff.snap_configuration(points)
    partition = cluster_partition(y, 0.0)
    ctx = assemble_context(model, y, partition)
    sizes = [len(b) for b in partition.blocks]
    first = np.cumsum([0] + sizes[:-1])
    moment, err, denom, route = _kac_rice(ctx, mc, first, sizes)
    return VanishingConstant(value=moment / denom, partition=partition,
                             stderr=err / denom, moment_route=route)


def clustering_defect(model, points, partition: IndexPartition,
                      mc: MonteCarloSpec | None = None) -> ClusteringDefect:
    """Factorization defect over a partition of blocks at least 1 apart.

    The joint intensity and each block's come from `rho_k`, so the defect
    carries their stated errors; with every moment deterministic (up to 5
    points per call) it resolves defects far below the paper's
    tail-norm^(1/2) bound.
    """
    x = divdiff.snap_configuration(points)
    k = x.size
    if partition.n != k:
        raise ConfigError("partition does not match the configuration length")
    if partition.num_blocks == 1:
        return ClusteringDefect(ratio=1.0, defect=0.0, error=0.0, bound=0.0)
    eta = math.inf
    for bi in range(partition.num_blocks):
        for bj in range(bi + 1, partition.num_blocks):
            for i in partition.blocks[bi]:
                for j in partition.blocks[bj]:
                    eta = min(eta, abs(x[i] - x[j]))
    if eta < 1.0:
        raise SeparationTooSmall(
            f"blocks must be separated by at least 1, found {eta:.3g}")

    joint = rho_k(model, x, mc)
    if joint.rho <= 0.0:
        raise DegenerateConfiguration("joint intensity vanished off the diagonal")
    blocks = [rho_k(model, x[list(b)], mc) for b in partition.blocks]
    prod = math.prod(b.rho for b in blocks)
    # first order: each factor's error times the others, and the quotient's
    prod_err = sum(b.n_stderr * math.prod(abs(c.rho) for c in blocks if c is not b)
                   for b in blocks)
    ratio = prod / joint.rho
    error = (prod_err / joint.rho
             + abs(ratio) * (joint.n_stderr / joint.rho + k * _EPS))
    return ClusteringDefect(ratio=ratio, defect=ratio - 1.0, error=error,
                            bound=math.sqrt(tail_norm(model, k, eta)))


def clustering_ratio(model, points, partition: IndexPartition,
                     mc: MonteCarloSpec | None = None) -> tuple[float, float]:
    """Factorization ratio over a partition of well-separated blocks.

    Returns (prod over blocks of the block intensity / joint intensity,
    tail-norm^(1/2) at the observed separation), the second entry being the
    scale of the expected deviation from 1.  `clustering_defect` also
    states the ratio's error.
    """
    res = clustering_defect(model, points, partition, mc)
    return res.ratio, res.bound
