"""Block covariance assembly and expected absolute products of Gaussians.

Given a configuration and an index partition, the divided differences of
the process inside each block form a Gaussian vector X whose conditional
companion Y collects the next-order differences.  This module assembles
their joint covariance (theta, xi, omega), the conditional covariance
lambda, and evaluates E prod |Z_i|^p_i for centered Gaussian vectors Z.
theta, xi and omega are slices of one A K A^T from one `derivs` call (see
`divdiff`; closed forms for two distinct singletons).  The same context
serves every Kac-Rice quotient: the intensities on any partition, and the
vanishing constant on the partition of coincident points.  Monte Carlo
moments evaluate each normal draw at `_ROTATIONS` seeded rotations of it,
and are spent in chunks that run on min(chunks, CPU count) threads and are
reduced in chunk order, so every answer has the same bits for any number
of cores.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import divdiff
from .errors import ConfigError, NotPSD, OrderUnavailable
from .partitions import IndexPartition

__all__ = [
    "KacRiceContext",
    "MonteCarloSpec",
    "assemble_context",
    "pi_k",
    "DEGENERACY_RTOL",
]

DEGENERACY_RTOL = 1e-12
_ROTATIONS = 8  # evaluations per normal draw w: at w, Q_2 w, ..., Q_8 w
_ROTATION_STREAM = 2 ** 64 - 1  # substream of the Q_r, beyond every chunk index
_CHUNK = 1 << 16  # evaluations per counter-based substream
_COLUMNS = 1 << 13  # evaluations per block of products inside a chunk
_BLOCK_THRESHOLD = 0.05  # |correlation| joining two coordinates into a group


@dataclass(frozen=True)
class MonteCarloSpec:
    """Sampling budget and seeding for Monte Carlo moments.

    `samples` counts integrand evaluations.  Each normal draw is evaluated
    at `_ROTATIONS` = 8 rotations of itself, so a call draws
    max(2, ceil(samples / 8)) normal vectors; at least two draws are needed
    to estimate a standard error.  The budget is spent in chunks of
    `_CHUNK` evaluations, each drawn from its own counter-based substream
    keyed by (seed, chunk index).  The chunks run on min(chunks, CPU count)
    threads and their sums are added in chunk order, so estimates do not
    depend on how chunks are scheduled across workers, nor on how many
    there are.  The default 2^19 evaluations are 2^16 draws in eight
    chunks; with the radial factor and the rotations of `_mc_abs_product`
    they state a smaller error than 10^6 plain samples.
    """

    samples: int = 1 << 19
    seed: int = 190406

    def __post_init__(self):
        if self.samples < 2:
            raise ConfigError(
                f"Monte Carlo needs at least 2 samples, got {self.samples}")


@dataclass(frozen=True)
class KacRiceContext:
    """Joint covariance data of the divided-difference vectors at one configuration."""

    x: tuple
    partition: IndexPartition
    theta: np.ndarray
    xi: np.ndarray
    omega: np.ndarray
    d_value: float
    lam: np.ndarray | None = None
    routes: tuple = ()  # per block: "taylor", "newton" or "closed-form"


def assemble_context(model, points, partition: IndexPartition) -> KacRiceContext:
    """Covariance matrices of the block divided differences at a configuration.

    theta is the covariance of the within-block divided differences, omega
    that of the order-(block+1) differences, xi their cross covariance, and
    lam the conditional covariance of the latter given the former vanish.
    lam is left unset when det(theta) is below the degeneracy threshold.
    """
    x = divdiff.snap_configuration(points)
    n = x.size
    if partition.n != n:
        raise ConfigError(f"partition covers {partition.n} indices, configuration has {n}")
    if 2 * n > model.max_derivative_order:
        raise OrderUnavailable(
            f"configurations of {n} points need kappa up to order {2 * n}, "
            f"model {model.kind} declares {model.max_derivative_order}")

    if n == 2 and partition.num_blocks == 2 and x[0] != x[1]:
        return _two_point_singleton_context(model, x, partition)

    blocks = [x[list(b)] for b in partition.blocks]
    cov, routes = divdiff._block_covariance(model, blocks)
    theta, xi, omega = cov[:n, :n], cov[n:, :n], cov[n:, n:]
    d_value, lam = _schur_complement(theta, xi, omega)
    return KacRiceContext(x=tuple(x), partition=partition, theta=theta, xi=xi,
                          omega=omega, d_value=d_value, lam=lam, routes=routes)


def _schur_complement(theta: np.ndarray, xi: np.ndarray, omega: np.ndarray):
    """det(theta) and omega - xi theta^-1 xi^T symmetrised, or None for the
    latter when det(theta) <= DEGENERACY_RTOL x the product of its diagonal."""
    d_value = float(np.linalg.det(theta))
    scale = float(np.prod(np.clip(np.diag(theta), 0.0, None)))
    if d_value <= DEGENERACY_RTOL * scale:
        return d_value, None
    lam = omega - xi @ np.linalg.solve(theta, xi.T)
    return d_value, 0.5 * (lam + lam.T)


def _two_point_singleton_context(model, x: np.ndarray,
                                 partition: IndexPartition) -> KacRiceContext:
    """Two distinct points, singleton blocks: closed-form conditional covariance.

    The generic Schur complement loses all accuracy when the points are
    close (the conditional variance is a difference of near-equal O(1)
    terms); the explicit two-point formulas, fed by the model's
    cancellation-free 1 - kappa^2, stay accurate down to the snap scale.
    """
    z = x[1] - x[0]
    k0, k1, k2 = model.derivs(z, 2)
    om2 = float(model.one_minus_kappa(abs(z)) * (1.0 + k0))
    lam = None
    if om2 > DEGENERACY_RTOL:
        q = k1 * k1 / om2
        b, c = 1.0 - q, -k2 - k0 * q
        lam = np.array([[b, c], [c, b]])
    return KacRiceContext(x=tuple(x), partition=partition,
                          theta=np.array([[1.0, k0], [k0, 1.0]]),
                          xi=np.array([[0.0, -k1], [k1, 0.0]]),
                          omega=np.array([[1.0, -k2], [-k2, 1.0]]),
                          d_value=om2, lam=lam, routes=("closed-form",) * 2)


# ---------------------------------------------------------------------------
# Expected absolute products
# ---------------------------------------------------------------------------

def _check_psd_and_factor(variance: np.ndarray) -> np.ndarray:
    """Eigen-floor check; returns a factor L with L L^T = variance (clipped)."""
    u = np.asarray(variance, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ConfigError("variance must be a square matrix")
    if not np.allclose(u, u.T, atol=1e-12 * max(1.0, float(np.abs(u).max()))):
        raise NotPSD("variance matrix is not symmetric")
    w, v = np.linalg.eigh(0.5 * (u + u.T))
    scale = max(float(np.trace(u)), 1e-300)
    if w.min() < -1e-10 * scale:
        raise NotPSD(f"smallest eigenvalue {w.min():.3e} below PSD floor")
    return v * np.sqrt(np.clip(w, 0.0, None))


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    """The counter-based Philox stream keyed by (seed mod 2^64, index).

    Streams with different keys are independent for any key layout
    (Salmon et al., SC'11), so callers key one stream per chunk or batch
    of work; each starts at counter 0.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _cholesky_or_none(u: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(u)
    except np.linalg.LinAlgError:
        return None


def _rotations(seed: int, k: int) -> np.ndarray:
    """Q_1 = I and `_ROTATIONS` - 1 Haar orthogonal k x k matrices, stacked.

    The Haar matrices are the Q factors of Gaussian matrices with the signs
    of R's diagonal moved into Q (Mezzadri, Notices AMS 54, 2007), drawn
    from the stream `_chunk_rng(seed, _ROTATION_STREAM)`.
    """
    rng = _chunk_rng(seed, _ROTATION_STREAM)
    q, r = np.linalg.qr(rng.standard_normal((_ROTATIONS - 1, k, k)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return np.concatenate([np.eye(k)[None], q])


def _mc_abs_product(L: np.ndarray, mc: MonteCarloSpec,
                    L_control: np.ndarray | None = None,
                    powers: np.ndarray | None = None) -> tuple[float, float]:
    """Chunked Monte Carlo mean of prod |(L w)_i|^p_i over standard normals w.

    The integrand is homogeneous of degree q = sum p_i, and |w| ~ chi_k is
    independent of w / |w|, so each evaluation is taken as
    E chi_k^q prod |(L v)_i|^p_i / |w|^q: the radial part is integrated
    exactly (spherical-radial split) and only the direction is sampled.
    Each draw w is evaluated at v = Q_r w for the `_ROTATIONS` matrices of
    `_rotations`, drawn once per call (|Q_r w| = |w|; randomly rotated
    spherical-radial rules, Genz & Monahan, SIAM J. Sci. Comput. 19, 1998).
    A sample is the mean of a draw's evaluations, and the standard error is
    taken over these per-draw means, so it holds whatever the correlation
    between rotations.  With `L_control` set, estimates the mean of the
    difference of the two products from common normals instead
    (control-variate correction); the difference has the same degree.  Both
    factors multiply the same rotated draws: products of L and L_control
    with each Q_r, rounded apart, would shift the small difference by a
    fixed amount for the whole call.

    The chunks run on a pool of min(chunks, CPU count) threads, made and
    joined here.  Each returns its sum and sum of squares, and these are
    added in chunk order, so the answer has the same bits for any number
    of workers.  Within a chunk the products are formed in blocks of
    `_COLUMNS` evaluations, which bounds the temporaries of each chunk in
    flight.  Workers call only private code and numpy.
    """
    k = L.shape[0]
    q = float(k if powers is None else powers.sum())
    radial = 2.0 ** (q / 2) * math.gamma((k + q) / 2) / math.gamma(k / 2)
    draws = max(2, math.ceil(mc.samples / _ROTATIONS))
    per_chunk, per_block = _CHUNK // _ROTATIONS, _COLUMNS // _ROTATIONS
    rot = _rotations(mc.seed, k)
    # rows ordered (i, r), so A @ w reshapes to (k, rotations x draws)
    A = (rot if L_control is not None else L @ rot).transpose(1, 0, 2)
    A = A.reshape(k * _ROTATIONS, k)

    def chunk(c: int) -> tuple[float, float]:
        n = min(per_chunk, draws - c * per_chunk)
        w = _chunk_rng(mc.seed, c).standard_normal((k, n))  # one column per draw
        vals = np.empty(n)
        for j in range(0, n, per_block):
            wb, vb = w[:, j:j + per_block], vals[j:j + per_block]
            z = (A @ wb).reshape(k, -1)
            if L_control is None:
                prods = _abs_product(z, powers)
            else:
                prods = _abs_product(L @ z, powers)
                prods -= _abs_product(L_control @ z, powers)
            prods.reshape(_ROTATIONS, -1).sum(axis=0, out=vb)
            vb *= radial / _ROTATIONS / np.einsum("ij,ij->j", wb, wb) ** (q / 2)
        return float(vals.sum()), float(vals @ vals)

    chunks = math.ceil(draws / per_chunk)
    with ThreadPoolExecutor(min(chunks, os.cpu_count() or 1)) as pool:
        sums = list(pool.map(chunk, range(chunks)))
    total = total_sq = 0.0
    for s, s2 in sums:  # in chunk order, whatever finished first
        total += s
        total_sq += s2
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0)
    return mean, math.sqrt(var / draws)


def _abs_product(z: np.ndarray, powers: np.ndarray | None) -> np.ndarray:
    """prod_i |z_i|^p_i down each column of z, overwriting z."""
    np.abs(z, out=z)
    if powers is not None:
        z **= powers[:, None]
    return z.prod(axis=0)


def _pi2_closed(u11: float, u22: float, u12: float) -> float:
    if u11 <= 0.0 or u22 <= 0.0:
        return 0.0
    s = math.sqrt(u11 * u22)
    r = min(1.0, max(-1.0, u12 / s))
    return (2.0 / math.pi) * s * (math.sqrt(1.0 - r * r) + r * math.asin(r))


def _pi3_closed(u: np.ndarray) -> float:
    """E|X1 X2 X3| for X ~ N(0, u) (Nabeya 1952).

    (2/pi)^(3/2) s1 s2 s3 [sqrt(det R) + sum over pairs ij of
    (r_ij + r_ik r_jk) asin(r_ij.k)], with R the correlation matrix and
    r_ij.k the partial correlation given the third coordinate k.  When a
    pair is perfectly correlated, the two partial correlations given one
    of its members are 0/0, and their terms cancel in the limit; when two
    pairs are (so all three are), the vector has rank one and the answer
    is E|Z|^3 = 2 sqrt(2/pi) times the scales.
    """
    s = np.sqrt(np.clip(np.diag(u), 0.0, None))
    scale = float(s.prod())
    if scale == 0.0:
        return 0.0
    r = np.clip(u / np.outer(s, s), -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    c = 1.0 - r * r  # c[i, j] = 1 - r_ij^2
    if sum(c[i, j] == 0.0 for i, j in ((0, 1), (0, 2), (1, 2))) >= 2:
        return 2.0 * math.sqrt(2.0 / math.pi) * scale
    total = math.sqrt(max(float(np.linalg.det(r)), 0.0))
    for i, j, m in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        den = math.sqrt(c[i, m] * c[j, m])
        if den > 0.0:
            partial = min(1.0, max(-1.0, (r[i, j] - r[i, m] * r[j, m]) / den))
            total += (r[i, j] + r[i, m] * r[j, m]) * math.asin(partial)
    return (2.0 / math.pi) ** 1.5 * scale * total


def _correlation_clusters(u: np.ndarray, threshold: float) -> list[list[int]]:
    k = u.shape[0]
    d = np.sqrt(np.clip(np.diag(u), 0.0, None))
    denom = np.outer(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, np.abs(u) / denom, 0.0)
    # transitive closure of the adjacency by repeated squaring; groups come
    # in order of their smallest index, which fixes each group's seed offset
    reach = (corr >= threshold) | np.eye(k, dtype=bool)
    for _ in range((k - 1).bit_length()):
        reach = reach @ reach
    first = reach.argmax(axis=1)
    return [np.flatnonzero(first == s).tolist() for s in np.unique(first)]


def pi_k(variance, mc: MonteCarloSpec | None = None, powers=None
         ) -> tuple[float, float]:
    """E prod_i |X_i|^p_i for X ~ N(0, variance), with a standard error.

    `powers` holds one integer p_i >= 0 per coordinate (default all 1).  One
    coordinate, and two or three coordinates with unit powers, use closed
    forms (zero error; three is Nabeya's arcsine form).  Otherwise the
    coordinates split into weakly correlated groups: the product of the
    group values (each group with its own powers, so a size-3 group is
    exact too) serves as an exact baseline and a common-random-numbers
    Monte Carlo estimates the (small) coupling correction, so nearly
    block-diagonal covariances are resolved far below the raw Monte Carlo
    noise floor.  A single strongly coupled group falls back to plain
    chunked Monte Carlo.  Both samplers integrate the radial part exactly
    and evaluate each normal draw at eight seeded rotations of it, so the
    default 2^19 evaluations draw 2^16 normal vectors (see
    `_mc_abs_product`).
    """
    mc = mc or MonteCarloSpec()
    u = np.asarray(variance, dtype=float)
    L = _check_psd_and_factor(u)
    k = u.shape[0]
    p = np.ones(k) if powers is None else np.asarray(powers, dtype=float)
    if p.shape != (k,) or not np.all(np.isfinite(p) & (p >= 0) & (p == np.floor(p))):
        raise ConfigError("one integer power >= 0 per coordinate required, "
                          f"got {p.tolist()}")
    p = p.astype(int)
    unit = bool(np.all(p == 1))
    if k == 1:  # E|Z|^q for Z ~ N(0, var)
        var, q = max(u[0, 0], 0.0), int(p[0])
        return (2.0 * var) ** (q / 2) * math.gamma((q + 1) / 2) / math.sqrt(math.pi), 0.0
    if k == 2 and unit:
        return _pi2_closed(u[0, 0], u[1, 1], u[0, 1]), 0.0
    if k == 3 and unit:
        return _pi3_closed(u), 0.0
    mc_powers = None if unit else p.astype(float)

    groups = _correlation_clusters(u, _BLOCK_THRESHOLD)
    if len(groups) == 1:
        return _mc_abs_product(L, mc, powers=mc_powers)

    base = 1.0
    base_err_sq = 0.0
    control = np.zeros_like(u)
    for gi, g in enumerate(groups):
        idx = np.ix_(g, g)
        control[idx] = u[idx]
        val, err = pi_k(u[idx], replace(mc, seed=mc.seed + 1000003 * (gi + 1)), p[g])
        if val > 0:
            base_err_sq += (err / val) ** 2
        base *= val
    base_err = abs(base) * math.sqrt(base_err_sq)
    # the coupled correction needs factors that agree entrywise up to the
    # weak coupling; Cholesky nests block-wise (unlike eigenvectors), so the
    # per-sample difference really is of the coupling's size
    L_full = _cholesky_or_none(u)
    L_control = _cholesky_or_none(control)
    if L_full is None or L_control is None:
        return _mc_abs_product(L, mc, powers=mc_powers)
    corr, corr_err = _mc_abs_product(L_full, mc, L_control=L_control,
                                     powers=mc_powers)
    return base + corr, math.hypot(base_err, corr_err)
