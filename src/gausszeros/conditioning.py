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
moments are randomized lattice rules: one rank-1 Korobov point set per
budget, mapped to normals once per process, evaluated at seeded Haar
rotations drawn per call.  They are spent in blocks that run on
min(blocks, CPU count) threads and are reduced in block order, so every
answer has the same bits for any number of cores.
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
_ROTATIONS = 16  # evaluations per lattice point, at least, budget permitting
_ROTATION_STREAM = 2 ** 64 - 1  # substream of the Q_r
_BLOCK = 1 << 13  # evaluations per block of the pool
_BLOCK_THRESHOLD = 0.05  # |correlation| joining two coordinates into a group


@dataclass(frozen=True)
class MonteCarloSpec:
    """Sampling budget and seeding for Monte Carlo moments.

    `samples` counts integrand evaluations: n lattice points, each at r
    rotations.  n is the largest power of two <= samples / 16 (from 2 to
    2^16) and r = samples // n, at least 2, since the error is the spread
    of the r rotation means.  The point set is built once per process;
    `seed` keys the counter-based substream of the call's rotations.  The
    evaluations run in blocks on min(blocks, CPU count) threads and their
    sums are added in block order, so estimates do not depend on how blocks
    are scheduled across workers, nor on how many there are.  The default
    2^19 evaluations are 2^15 points at 16 rotations; with the radial
    factor of `_mc_abs_product` they state a smaller error than 10^6 plain
    samples.
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


def _rotations(seed: int, k: int, count: int) -> np.ndarray:
    """`count` i.i.d. Haar orthogonal k x k matrices, stacked.

    They are the Q factors of Gaussian matrices with the signs of R's
    diagonal moved into Q (Mezzadri, Notices AMS 54, 2007), drawn from the
    stream `_chunk_rng(seed, _ROTATION_STREAM)`.
    """
    rng = _chunk_rng(seed, _ROTATION_STREAM)
    q, r = np.linalg.qr(rng.standard_normal((count, k, k)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q


# Wichura's AS241 (PPND16), Appl. Stat. 37 (1988): numerators and
# denominators, lowest degree first, of the central region |p - 1/2| <=
# 0.425, of r = sqrt(-log min(p, 1 - p)) - 1.6 for r <= 5, and of r - 5
_AS241 = (
    ((3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3),
     (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
      2.8729085735721942674e4, 5.2264952788528545610e3)),
    ((1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4),
     (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
      5.47593808499534494600e-4, 1.05075007164441684324e-9)),
    ((6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7),
     (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
      1.42151175831644588870e-7, 2.04426310338993978564e-15)),
)


def _horner(coeffs, r: np.ndarray) -> np.ndarray:
    """sum_d coeffs[d] r^d, by Horner's rule.

    Written out because `numpy.polynomial` adds a 3 ms import to a
    one-shot CLI call.
    """
    out = np.full_like(r, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * r + c
    return out


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF on 0 < p < 1, by Wichura's AS241.

    About 1e-16 relative error over the double range (scipy.special.ndtri
    is the test reference; the package does not import scipy here).
    """
    def ratio(coeffs, r):
        num, den = (_horner(c, r) for c in coeffs)
        return num / den

    p = np.asarray(p, dtype=float)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    out = np.empty_like(p)
    r = 0.180625 - q[central] ** 2
    out[central] = q[central] * ratio(_AS241[0], r)
    t = p[~central]
    r = np.sqrt(-np.log(np.minimum(t, 1.0 - t)))
    near = r <= 5.0
    x = np.where(near, ratio(_AS241[1], r - 1.6), ratio(_AS241[2], r - 5.0))
    out[~central] = np.copysign(x, t - 0.5)
    return out


# Korobov multipliers a by m for the n = 2^m point lattice with coordinates
# a^j i mod n, j = 0, 1, ...: by exhaustive search, the odd a < n/2 (a and
# n - a give the same rule) of least
#   P_2 = -1 + mean_i prod_{j<6} (1 + 0.05 * 2 pi^2 B_2({a^j i / n})),
# B_2(x) = x^2 - x + 1/6, the squared worst-case error of the rule in the
# 6-dimensional Korobov space of smoothness 2 with product weights 0.05
# (Sloan & Joe, Lattice methods for multiple integration, 1994).  The small
# weights favour low-order projections: unit weights chose a = 12753 at
# m = 15, which stated 3.7x the worst error of a = 5357 on benchmark matrices
_KOROBOV = {1: 1, 2: 1, 3: 3, 4: 3, 5: 5, 6: 19, 7: 19, 8: 21, 9: 115, 10: 179,
            11: 811, 12: 791, 13: 2789, 14: 7475, 15: 5357, 16: 15353}
_LATTICE: dict[int, np.ndarray] = {}  # n -> normal images, widest k asked so far


def _build_lattice(n: int, k: int) -> np.ndarray:
    """Rows j < k: the inverse normal CDF of (a^j i mod n + 1/2) / n, i < n.

    The half-cell shift keeps every coordinate inside (0, 1); with n even
    no point maps to the origin, where the radial split divides by |w|.
    """
    a = _KOROBOV[n.bit_length() - 1]
    normals = _ndtri((np.arange(n) + 0.5) / n)
    index = np.arange(n, dtype=np.int64)  # a^j i mod n, row by row
    rows = np.empty((k, n))
    for row in rows:
        np.take(normals, index, out=row)
        index *= a
        index &= n - 1  # mod n
    return rows


def _lattice(n: int, k: int) -> np.ndarray:
    """The first k rows of the n-point lattice's normals, built on first use.

    One point set per n is kept for the process, for the widest k asked so
    far: the rows of a narrower k are its first rows.  Concurrent first
    calls may both build it; they build the same bits.
    """
    points = _LATTICE.get(n)
    if points is None or points.shape[0] < k:
        points = _LATTICE[n] = _build_lattice(n, k)
    return points[:k]


def _budget(samples: int) -> tuple[int, int]:
    """(points, rotations) for a budget of `samples` evaluations.

    points n is the largest power of two <= samples / `_ROTATIONS`, within
    the committed lattices (2 to 2^16), and rotations r = samples // n, at
    least 2 so that their spread states an error.
    """
    m = min(max((samples // _ROTATIONS).bit_length() - 1, 1), max(_KOROBOV))
    n = 1 << m
    return n, max(2, samples // n)


def _mc_abs_product(L: np.ndarray, mc: MonteCarloSpec,
                    L_control: np.ndarray | None = None,
                    powers: np.ndarray | None = None) -> tuple[float, float]:
    """Randomized lattice mean of prod |(L w)_i|^p_i over standard normals w.

    The integrand is homogeneous of degree q = sum p_i, and |w| ~ chi_k is
    independent of w / |w|, so each evaluation is taken as
    E chi_k^q prod |(L v)_i|^p_i / |w|^q: the radial part is integrated
    exactly (spherical-radial split) and only the direction is sampled.
    The w are the n points of the cached lattice (`_lattice`, with n and r
    from `_budget`), evaluated at v = Q_r w for r i.i.d. Haar rotations
    Q_r drawn per call (|Q_r w| = |w|; randomly rotated spherical-radial
    rules, Genz & Monahan, SIAM J. Sci. Comput. 19, 1998).  A rotated
    point set is a direction set with the lattice's uniformity, so each
    rotation's mean is unbiased and the r means are independent; the
    estimate is their mean and the standard error their spread over
    sqrt(r).  With `L_control` set, estimates the mean of the difference
    of the two products instead (control-variate correction); the
    difference has the same degree.  Both factors multiply the same
    rotated points: products of L and L_control with each Q_r, rounded
    apart, would shift the small difference by a fixed amount for the
    whole call.  Leading rows the factors share (a leading group of the
    split) give one product p_lead, and the difference is taken as
    p_lead (p_rest - p_rest_control).

    Blocks of about `_BLOCK` evaluations (one slice of points at every
    rotation) run on a pool of min(blocks, CPU count) threads, made and
    joined here; worker j takes blocks j, j + workers, ..., since one task
    per block costs more in thread hand-offs than a block's numpy work.
    Each block returns one partial sum per rotation, and these are added in
    block order, so the answer has the same bits for any number of
    workers.  The lattice is built on the calling thread; workers call only
    private code and numpy.
    """
    k = L.shape[0]
    q = float(k if powers is None else powers.sum())
    radial = 2.0 ** (q / 2) * math.gamma((k + q) / 2) / math.gamma(k / 2)
    n, count = _budget(mc.samples)
    w = _lattice(n, k)
    weight = radial / np.einsum("ij,ij->j", w, w) ** (q / 2)
    if powers is not None:  # row i taken p_i times: a plain product of rows
        rows = np.repeat(np.arange(k), powers.astype(int))
        L = L[rows]
        L_control = None if L_control is None else L_control[rows]
    rot = _rotations(mc.seed, k, count)
    # rows ordered (i, r), so A @ w reshapes to (rows, rotations x points)
    A = (rot if L_control is not None else L @ rot).transpose(1, 0, 2)
    A = A.reshape(-1, k)
    if L_control is not None:
        h = L.shape[0]
        same = np.all(L == L_control, axis=1)
        lead = h if same.all() else int(same.argmin())
        both = np.vstack([L, L_control[lead:]])  # rows of L, then the others'
    width = max(1, _BLOCK // count)

    def block(start: int) -> np.ndarray:
        points = w[:, start:start + width]
        z = (A @ points).reshape(-1, count * points.shape[1])
        if L_control is None:
            prods = _abs_product(z)
        else:
            z = both @ z
            prods = _abs_product(z[lead:h]) - _abs_product(z[h:])
            prods *= _abs_product(z[:lead])
        return prods.reshape(count, -1) @ weight[start:start + width]

    starts = range(0, n, width)
    workers = min(len(starts), os.cpu_count() or 1)
    with ThreadPoolExecutor(workers) as pool:
        sums = list(pool.map(lambda j: [block(s) for s in starts[j::workers]],
                             range(workers)))
    means = np.zeros(count)
    for b in range(len(starts)):  # in block order, whatever finished first
        means += sums[b % workers][b // workers]
    means /= n
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(count))


def _abs_product(z: np.ndarray) -> np.ndarray:
    """prod_i |z_i| down each column of z, as |prod_i z_i|."""
    return np.abs(z.prod(axis=0))


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
    noise floor.  A single strongly coupled group falls back to the plain
    estimate.  Both integrate the radial part exactly and sample directions
    from the process's cached lattice point set at seeded Haar rotations:
    the default 2^19 evaluations are 2^15 points at 16 rotations, and the
    standard error is the spread of the 16 rotation means (see
    `MonteCarloSpec` and `_mc_abs_product`).
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
