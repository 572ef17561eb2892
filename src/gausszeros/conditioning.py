"""Block covariance assembly and expected absolute products of Gaussians.

Given a configuration and an index partition, the divided differences of
the process inside each block form a Gaussian vector X whose conditional
companion Y collects the next-order differences.  This module assembles
their joint covariance (theta, xi, omega), the conditional covariance
lambda, and evaluates E prod |Z_i|^p_i for centered Gaussian vectors Z.
theta, xi and omega are slices of one A K A^T from one `derivs` call (see
`divdiff`; closed forms for two distinct singletons).  The same context
serves every Kac-Rice quotient: the intensities on any partition, and the
vanishing constant on the partition of coincident points.  Moments of up
to 5 coordinates are deterministic: closed forms, or Gaussian integration
by parts down to sign moments, which tanh-sinh quadrature evaluates.  Only
moments of 6 or more coordinates sample, by randomized lattice rules: one
rank-1 Korobov point set per budget, mapped to normals once per process,
evaluated at seeded Haar rotations drawn per call.  They are spent in
blocks of about 2^13 evaluations, one after another on the calling thread:
a block is about 50 us of numpy, too little for threads to repay their
start and hand-offs.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import divdiff
from .errors import ConfigError, NotPSD, OrderUnavailable, SizeCap
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
_BLOCK = 1 << 13  # evaluations per block
_MAX_ROTATIONS = 1 << 12  # rotations per call, drawn at once
_BLOCK_THRESHOLD = 0.05  # |correlation| joining two coordinates into a group
_RECURSION_MAX_K = 5  # the widest pi_k by integration by parts; wider ones sample
_EPS = sys.float_info.epsilon
_ZERO_VARIANCE = 64 * _EPS  # conditional variance, per unit variance, taken as 0
_TS_HALF = 40  # tanh-sinh nodes on each side of the midpoint at step h/2
_TS_REACH = 3.5  # |x| of the outermost node, where 1 - t = 2.6e-23


@dataclass(frozen=True)
class MonteCarloSpec:
    """Sampling budget and seeding for Monte Carlo moments.

    Only `pi_k` calls with 6 or more coordinates (of positive power)
    sample; smaller ones are deterministic and ignore the spec.  `samples`
    counts integrand evaluations: n lattice points, each at r
    rotations.  n is the largest power of two <= samples / 16 (from 2 to
    2^16) and r = samples // n, at least 2, since the error is the spread
    of the r rotation means.  The point set is built once per process;
    `seed` keys the counter-based substream of the call's rotations.  A
    call draws all r rotations at once, so r is capped at 2^12: budgets
    from (2^12 + 1) 2^16 evaluations on raise `SizeCap`.  The default 2^19
    evaluations are 2^15 points at 16 rotations; with the radial factor of
    `_mc_abs_product` they state a smaller error than 10^6 plain samples.
    Both fields take Python or numpy integers only.
    """

    samples: int = 1 << 19
    seed: int = 190406

    def __post_init__(self):
        for name in ("samples", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigError(f"Monte Carlo {name} must be an integer, "
                                  f"got {value!r}") from None
        if self.samples < 2:
            raise ConfigError(
                f"Monte Carlo needs at least 2 samples, got {self.samples}")
        if _budget(self.samples)[1] > _MAX_ROTATIONS:
            raise SizeCap(f"{self.samples} Monte Carlo samples need more than "
                          f"{_MAX_ROTATIONS} rotations of the largest lattice")


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
    rotation) run in turn on the calling thread, and their per-rotation
    sums are added in block order.
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
    means = np.zeros(count)
    for start in range(0, n, width):
        points = w[:, start:start + width]
        z = (A @ points).reshape(-1, count * points.shape[1])
        if L_control is None:
            prods = _abs_product(z)
        else:
            z = both @ z
            prods = _abs_product(z[lead:h]) - _abs_product(z[h:])
            prods *= _abs_product(z[:lead])
        means += prods.reshape(count, -1) @ weight[start:start + width]
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


# ---------------------------------------------------------------------------
# Gaussian integration by parts
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _tanh_sinh() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t, 1 - t and weights of the tanh-sinh rule on [0, 1] at step h/2.

    t = 1 / (1 + exp(-pi sinh x)) at x = j h/2, |x| <= `_TS_REACH`, with
    weights (h/2) pi cosh(x) t (1 - t) (Takahasi & Mori, Publ. RIMS 9,
    1974).  Every other node, at twice the weight, is the rule at step h.
    1 - t is formed directly, so factors singular at t = 1 stay exact there.
    """
    x = np.linspace(-_TS_REACH, _TS_REACH, 2 * _TS_HALF + 1)
    e = np.exp(math.pi * np.sinh(x))
    t, s = e / (1.0 + e), 1.0 / (1.0 + e)
    return t, s, (x[1] - x[0]) * math.pi * np.cosh(x) * t * s


# the pairings of four coordinates as orderings, pairs (0, 1) and (2, 3)
_PAIRINGS = np.array([[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]])
# the pairs (i, j) off the pairing (0, 1), (2, 3), and their complements (k, m)
_OFF_PAIRS = np.array([[0, 0, 1, 1], [2, 3, 2, 3], [1, 1, 0, 0], [3, 2, 3, 2]])


def _four_signs(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E s_1 s_2 s_3 s_4, s = sign(X), for each correlation matrix of R (n, 4, 4),
    with |I(h) - I(h/2)| of its quadrature.

    Plackett's reduction (Biometrika 41, 1954): d E / d r_ij = 4 phi_2(0, 0;
    r_ij) E[s_k s_l | X_i = X_j = 0], and two signs give (2/pi) asin of
    their (partial) correlation.  The derivative is integrated along the
    straight path to R from the pairing that holds the largest |r_ij|,
    where E is the product of two arcsines; on the path the pairing's
    entries stay and the other four scale by t.  The conditional
    covariances are cubics in 1 - t, with coefficients formed once, so
    their rounding is the same at every node: near t = 1 a nearly singular
    R would otherwise make the integrand noise.  A conditional variance of
    0 gives a sign of 0.
    """
    n = R.shape[0]
    best = np.abs(R[:, [0, 0, 0, 2, 1, 1], [1, 2, 3, 3, 3, 2]]).reshape(n, 2, 3)
    perm = _PAIRINGS[best.max(axis=1).argmax(axis=1)]
    R = R[np.arange(n)[:, None, None], perm[:, :, None], perm[:, None, :]]
    t, s, w = _tanh_sinh()

    # entries of R(t) as cubics in 1 - t, coefficient arrays (n, pairs, 4)
    # lowest degree first, for each off-pairing pair (i, j) and its
    # complement (k, m); no product below exceeds degree 3
    def entry(p, q):
        r = R[:, p, q]
        c = np.zeros(r.shape + (4,))
        c[..., 0] = r
        c[..., 1] = np.where(p // 2 == q // 2, 0.0, -r)
        return c

    def mul(f, g):
        out = f * g[..., :1]
        for d in range(1, 4):
            out[..., d:] += f[..., :4 - d] * g[..., d, None]
        return out

    i, j, k, m = _OFF_PAIRS
    a, xi, xj, yi, yj = (entry(p, q) for p, q in ((i, j), (k, i), (k, j), (m, i), (m, j)))
    r = R[:, i, j]
    det = np.zeros_like(a)  # 1 - a^2 for a = r t
    det[..., 0], det[..., 1], det[..., 2] = (1.0 - r) * (1.0 + r), 2.0 * r * r, -r * r
    # the conditional covariance of (X_k, X_m) given X_i = X_j = 0, times det
    ckm = (mul(entry(k, m), det) - mul(xi, yi) - mul(xj, yj)
           + mul(a, mul(xi, yj) + mul(xj, yi)))
    ckk, cmm = (det - mul(x, x) - mul(y, y) + 2.0 * mul(a, mul(x, y))
                for x, y in ((xi, xj), (yi, yj)))
    # at the nodes 1 - t = s by Horner's rule: (n, pairs, nodes)
    ckm, ckk, cmm, det = (((f[..., 3, None] * s + f[..., 2, None]) * s
                           + f[..., 1, None]) * s + f[..., 0, None]
                          for f in (ckm, ckk, cmm, det))
    live = (ckk > _ZERO_VARIANCE * det) & (cmm > _ZERO_VARIANCE * det)
    rho = np.clip(ckm / np.sqrt(np.where(live, ckk * cmm, 1.0)), -1.0, 1.0)
    integrand = np.einsum("np,npt->nt", r, np.where(live, np.arcsin(rho), 0.0)
                          / np.sqrt(det))
    integrand *= 4.0 / math.pi ** 2
    fine, coarse = integrand @ w, 2.0 * (integrand[:, ::2] @ w[::2])
    base = (2.0 / math.pi) ** 2 * np.arcsin(R[:, 0, 1]) * np.arcsin(R[:, 2, 3])
    return base + fine, np.abs(fine - coarse)


def _ibp_moment(u: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """E prod_i |X_i|^p_i for X ~ N(0, u), p_i > 0, by Gaussian integration
    by parts.

    Uncorrelated groups of coordinates are independent, and their moments
    (from `pi_k`) multiply.  Otherwise coordinates are scaled to unit
    variance, and |X_i|^p_i is carried as X_i^a_i s_i^b_i with s = sign(X).
    Stein's identity (Ann. Stat. 9, 1981), E[X_w H] = sum_m C_wm E[d_m H],
    lowers a_w by one; d_m X_m^a = a X_m^(a-1), and d_m s_m = 2 delta(X_m)
    conditions on X_m = 0 at the density 1 / sqrt(2 pi C_mm).  A state
    (conditioned set, a, b) is evaluated once, on the covariance C
    conditioned on its set, in which a conditional variance below
    `_ZERO_VARIANCE` makes that coordinate's factors 0.  What remains are
    sign moments: none give 1, two an arcsine, four `_four_signs`, all
    four-sign moments of one call in one batch.  Every step keeps
    sum_i (a_i + b_i) even, so with at most 5 coordinates the signs left
    number 0, 2 or 4.

    The stated error is the quadrature's |I(h) - I(h/2)| plus k eps times
    the summed |terms|, both carried through the recursion by |coefficient|.
    """
    groups = _components(u != 0.0)
    if len(groups) > 1:  # independent groups: the product of their moments
        parts = [pi_k(u[np.ix_(g, g)], powers=p[g]) for g in groups]
        err = sum(e * math.prod(abs(v) for j, (v, _) in enumerate(parts) if j != i)
                  for i, (_, e) in enumerate(parts))
        return math.prod(v for v, _ in parts), err
    k = p.size
    sd = np.sqrt(np.clip(np.diag(u), 0.0, None))
    if np.any(sd == 0.0):
        return 0.0, 0.0
    R = np.clip(u / np.outer(sd, sd), -1.0, 1.0)
    np.fill_diagonal(R, 1.0)
    covs = {0: (R.tolist(), 0)}  # conditioned set -> (C, mask of zero variances)

    def conditioned(cond: int):
        got = covs.get(cond)
        if got is None:
            m = cond.bit_length() - 1
            C = conditioned(cond ^ (1 << m))[0]
            cm, d = C[m], C[m][m]
            C = [[cij - ci * cmj / d for cij, cmj in zip(row, cm)]
                 for row, ci in zip(C, cm)]
            zero = 0
            for i in range(k):
                if C[i][i] <= _ZERO_VARIANCE:
                    zero |= 1 << i
            got = covs[cond] = (C, zero)
        return got

    index: dict = {}  # state -> position in `nodes`
    nodes: list = []  # children before parents: a float, a leaf number or terms
    leaves: list = []  # (C, coordinates) of the four-sign moments

    def visit(cond: int, a: tuple, b: int) -> int:
        key = (cond, a, b)
        at = index.get(key)
        if at is not None:
            return at
        C, zero = conditioned(cond)
        w = next((i for i in range(k) if a[i]), -1)
        if zero & b or any(a[i] and zero >> i & 1 for i in range(k)):
            node = 0.0
        elif w < 0:  # signs only
            signs = [i for i in range(k) if b >> i & 1]
            if not signs:
                node = 1.0
            elif len(signs) == 2:
                i, j = signs
                r = C[i][j] / math.sqrt(C[i][i] * C[j][j])
                node = 2.0 / math.pi * math.asin(min(1.0, max(-1.0, r)))
            else:
                node = len(leaves)
                leaves.append((C, signs))
        else:
            lower = list(a)
            lower[w] -= 1
            node = []
            for m, c in enumerate(C[w]):
                if c == 0.0:
                    continue
                if lower[m]:
                    child = list(lower)
                    child[m] -= 1
                    node.append((c * lower[m], visit(cond, tuple(child), b)))
                elif b >> m & 1:
                    node.append((c * 2.0 / math.sqrt(2.0 * math.pi * C[m][m]),
                                 visit(cond | 1 << m, tuple(lower), b ^ 1 << m)))
        index[key] = len(nodes)
        nodes.append(node)
        return index[key]

    visit(0, tuple(int(q) for q in p), sum(1 << i for i in range(k) if p[i] % 2))
    if leaves:
        corr = np.empty((len(leaves), 4, 4))
        for n, (C, signs) in enumerate(leaves):
            block = np.array([[C[i][j] for j in signs] for i in signs])
            sd4 = np.sqrt(np.diag(block))
            corr[n] = np.clip(block / np.outer(sd4, sd4), -1.0, 1.0)
        leaf_value, leaf_err = (v.tolist() for v in _four_signs(corr))
    value, size, err = [], [], []
    for node in nodes:
        if type(node) is float:
            v, e = node, 0.0
            m = abs(v)
        elif type(node) is int:
            v, e = leaf_value[node], leaf_err[node]
            m = abs(v)
        else:
            v = m = e = 0.0
            for c, j in node:
                v += c * value[j]
                m += abs(c) * size[j]
                e += abs(c) * err[j]
        value.append(v)
        size.append(m)
        err.append(e)
    scale = float(np.prod(sd ** p))
    return scale * value[-1], scale * (err[-1] + k * _EPS * size[-1])


def _components(adjacent: np.ndarray) -> list[list[int]]:
    """Connected components of a symmetric boolean adjacency, in order of
    their smallest index."""
    # transitive closure by repeated squaring
    k = adjacent.shape[0]
    reach = adjacent | np.eye(k, dtype=bool)
    for _ in range((k - 1).bit_length()):
        reach = reach @ reach
    first = reach.argmax(axis=1)
    return [np.flatnonzero(first == s).tolist() for s in np.unique(first)]


def _correlation_clusters(u: np.ndarray, threshold: float) -> list[list[int]]:
    d = np.sqrt(np.clip(np.diag(u), 0.0, None))
    denom = np.outer(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, np.abs(u) / denom, 0.0)
    # the group order fixes each group's seed offset
    return _components(corr >= threshold)


def _moment_route(powers) -> str:
    """How `pi_k` evaluates the coordinates of positive `powers`:
    "closed-form", "recursion" (`_ibp_moment`) or "lattice" (sampled)."""
    live = [q for q in powers if q > 0]
    if len(live) <= 1 or (len(live) <= 3 and all(q == 1 for q in live)):
        return "closed-form"
    return "recursion" if len(live) <= _RECURSION_MAX_K else "lattice"


def pi_k(variance, mc: MonteCarloSpec | None = None, powers=None
         ) -> tuple[float, float]:
    """E prod_i |X_i|^p_i for X ~ N(0, variance), with its stated error.

    `powers` holds one integer p_i >= 0 per coordinate (default all 1);
    coordinates of power 0 are dropped.  The route (`_moment_route`) goes
    by the number k of coordinates left:
    - one coordinate, and two or three with unit powers: closed forms
      (zero error; three is Nabeya's arcsine form);
    - k <= 5 at any powers: Gaussian integration by parts down to sign
      moments (`_ibp_moment`), deterministic, with a quadrature and
      rounding bound as its error;
    - k >= 6, the only calls that sample (and read `mc`): the coordinates
      split into weakly correlated groups, the product of the group values
      (each by the routes above) serves as an exact baseline, and a
      common-random-numbers Monte Carlo estimates the (small) coupling
      correction, so nearly block-diagonal covariances are resolved far
      below the raw Monte Carlo noise floor.  A single strongly coupled
      group falls back to the plain estimate.  Both integrate the radial
      part exactly and sample directions from the process's cached lattice
      point set at seeded Haar rotations: the default 2^19 evaluations are
      2^15 points at 16 rotations, and the standard error is the spread of
      the 16 rotation means (see `MonteCarloSpec` and `_mc_abs_product`).
    The PSD check runs in front of every route.
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
    route = _moment_route(p)
    if route != "lattice":  # E|X_i|^0 = 1: drop the coordinate
        u, p = u[np.ix_(p > 0, p > 0)], p[p > 0]
        k = p.size
    if route == "closed-form":
        if k == 0:
            return 1.0, 0.0
        if k == 1:  # E|Z|^q for Z ~ N(0, var)
            var, q = max(u[0, 0], 0.0), int(p[0])
            return (2.0 * var) ** (q / 2) * math.gamma((q + 1) / 2) / math.sqrt(math.pi), 0.0
        return (_pi2_closed(u[0, 0], u[1, 1], u[0, 1]) if k == 2 else _pi3_closed(u)), 0.0
    if route == "recursion":
        return _ibp_moment(u, p)
    unit = bool(np.all(p == 1))
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
