"""Sampling of stationary Gaussian paths, zero extraction, and MC diagnostics.

Paths are sampled with their derivative on a uniform grid by one spectral
route: a single complex FFT on a torus of period P >= L + reach, whose
eigenvalues are the model's spectral density at the FFT frequencies, and
whose derivative channel is the same draw multiplied by i*omega.  The real
and imaginary parts of one draw are two independent replicates; each pair
draws from its own counter-based substream keyed by (master_seed, pair
index), so runs are reproducible bit-for-bit regardless of batching or
thread count.  Zeros are located by sign changes and polished on the cubic
Hermite interpolant of (f, f') over the bracketing cell.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import ConfigError, IntervalsOverlap, WindowTooSmall
from .variance import TestFunction, expected_linear_statistic

__all__ = [
    "SimulationSpec",
    "ZeroSample",
    "MomentEstimate",
    "extract_zeros",
    "linear_statistic",
    "empirical_moments",
    "empirical_k_point",
    "clt_diagnostic",
    "replicate_statistics",
    "zero_samples",
]


@dataclass(frozen=True)
class SimulationSpec:
    """Window [0, L], grid and replication controls for path sampling."""

    window_length: float
    grid_step: float = 0.05
    num_samples: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.window_length <= 0:
            raise ConfigError("window length must be positive")
        if not 0 < self.grid_step <= 0.05:
            raise ConfigError("grid step must lie in (0, 0.05] "
                              "(well below the unit correlation length)")
        if self.num_samples < 1:
            raise ConfigError("need at least one replicate")

    @property
    def grid_size(self) -> int:
        return int(math.ceil(self.window_length / self.grid_step)) + 1


@dataclass(frozen=True)
class ZeroSample:
    """Sorted zero locations of one replicate inside [0, L]."""

    zeros: np.ndarray
    replicate_seed: int


@dataclass(frozen=True)
class MomentEstimate:
    """A central-moment estimate with a bootstrap confidence interval."""

    order: int
    estimate: float
    ci_low: float
    ci_high: float
    num_samples: int


def _replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _correlation_reach(model, target: float = 1e-9, cap: float = 400.0) -> float:
    """Radius beyond which kappa, kappa', kappa'' all fall below `target`."""
    if model.envelope_start(2) is None:
        return 60.0
    x = max(model.envelope_start(l) for l in range(3))
    while x < cap:
        if max(model.tail_envelope(l, x) for l in range(3)) <= target:
            return x
        x *= 1.3
    return cap


class _SpectralSampler:
    """(f, f') on the grid of [0, L], as a window of a stationary torus field.

    With step h and n = P / h nodes, the field is sum_j a_j zeta_j
    e^{i omega_j x} over the FFT frequencies omega_j, with complex standard
    normal zeta_j and a_j^2 = (2 pi / (n h)) g(omega_j): its covariance is
    the Riemann sum of int g(xi) e^{i xi x} dxi, i.e. kappa periodized with
    period P, up to the mass of g beyond the Nyquist frequency pi / h
    (below 1e-30 for the presets at the allowed steps).  Every lag inside [0, L] stays at least P - L >= reach from
    its nearest alias.  The spectral weights are non-negative by
    construction, so no embedding can fail.
    """

    def __init__(self, model, spec: SimulationSpec):
        self.m = spec.grid_size
        h = spec.grid_step
        span = (self.m - 1) * h + _correlation_reach(model)
        self.n = fft.next_fast_len(int(math.ceil(span / h)))
        omega = 2.0 * math.pi * fft.fftfreq(self.n, d=h)
        weight = 2.0 * math.pi / (self.n * h) * model.spectral_density(omega)
        self.amp = np.sqrt(weight).astype(complex)
        self.amp_d = 1j * omega * self.amp
        if self.n % 2 == 0:
            # the Nyquist mode has no sign, so it carries no derivative
            self.amp_d[self.n // 2] = 0.0

    def sample(self, master_seed: int, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Fields of the given replicate pairs: arrays (2 len(pairs), m).

        Row 2 i is the real part and row 2 i + 1 the imaginary part of pair
        pairs[i], i.e. replicates 2 pair and 2 pair + 1.
        """
        pairs = list(pairs)
        zeta = np.empty((len(pairs), self.n), dtype=complex)
        for row, pair in enumerate(pairs):
            rng = _replicate_rng(master_seed, pair)
            zeta[row] = rng.standard_normal(2 * self.n).view(complex)
        return (self._window(self.amp * zeta),
                self._window(self.amp_d * zeta))

    def _window(self, coeffs: np.ndarray) -> np.ndarray:
        field = fft.ifft(coeffs, axis=1, norm="forward")[:, :self.m]
        out = np.empty((2 * field.shape[0], self.m))
        out[0::2] = field.real
        out[1::2] = field.imag
        return out


def _hermite_roots_batch(f0, d0, f1, d1, h: float) -> np.ndarray:
    """Roots in (0, 1) of the cubic Hermite interpolants, one per bracket.

    All brackets have a sign change, so bisection on the cubic converges
    unconditionally; 60 halvings reach full double precision.
    """
    a = f0
    b = h * d0
    c = 3.0 * (f1 - f0) - h * (2.0 * d0 + d1)
    d = -2.0 * (f1 - f0) + h * (d0 + d1)

    def val(t):
        return a + t * (b + t * (c + t * d))

    lo = np.zeros_like(f0)
    hi = np.ones_like(f0)
    sign_lo = np.sign(val(lo))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        vm = val(mid)
        same = np.sign(vm) == sign_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _zeros_from_batch(f: np.ndarray, fp: np.ndarray, spec: SimulationSpec
                      ) -> list[np.ndarray]:
    """Vectorized zero extraction for a batch of paths."""
    h = spec.grid_step
    L = spec.window_length
    sign_change = (f[:, :-1] * f[:, 1:]) < 0.0
    rows, cols = np.nonzero(sign_change)
    roots = np.empty(0)
    if rows.size:
        t = _hermite_roots_batch(f[rows, cols], fp[rows, cols],
                                 f[rows, cols + 1], fp[rows, cols + 1], h)
        roots = (cols + t) * h
    out = []
    node_hits = np.abs(f) == 0.0
    for r in range(f.shape[0]):
        zr = roots[rows == r]
        hit_cols = np.nonzero(node_hits[r])[0]
        if hit_cols.size:
            zr = np.unique(np.concatenate([zr, hit_cols * h]))
        else:
            zr = np.sort(zr)
        out.append(zr[(zr >= 0.0) & (zr <= L)])
    return out


def extract_zeros(path_f, path_fp, spec: SimulationSpec,
                  replicate_seed: int = 0) -> ZeroSample:
    """Zeros of one sampled path via sign changes + cubic Hermite polish."""
    f = np.atleast_2d(np.asarray(path_f, dtype=float))
    fp = np.atleast_2d(np.asarray(path_fp, dtype=float))
    if f.shape != fp.shape or f.shape[0] != 1:
        raise ConfigError("need matching 1-D value/derivative arrays")
    zeros = _zeros_from_batch(f, fp, spec)[0]
    return ZeroSample(zeros=zeros, replicate_seed=replicate_seed)


def zero_samples(model, spec: SimulationSpec, threads: int = 1
                 ) -> list[ZeroSample]:
    """Zero sets of all replicates, batched and optionally threaded.

    Batches start at even replicates, so each holds whole pairs; with an
    odd `num_samples` the last pair gives only its real part.
    """
    sampler = _SpectralSampler(model, spec)
    batch = 2 * max(1, min(256, (1 << 18) // sampler.n))
    batches = [range(s, min(s + batch, spec.num_samples))
               for s in range(0, spec.num_samples, batch)]

    def work(reps):
        f, fp = sampler.sample(spec.master_seed,
                               range(reps.start // 2, (reps.stop + 1) // 2))
        return _zeros_from_batch(f[:len(reps)], fp[:len(reps)], spec)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(work, batches))
    else:
        chunks = [work(b) for b in batches]
    out = []
    for reps, zero_lists in zip(batches, chunks):
        for rep, z in zip(reps, zero_lists):
            out.append(ZeroSample(zeros=z, replicate_seed=rep))
    return out


def linear_statistic(sample: ZeroSample, phi: TestFunction, R: float) -> float:
    """Sum of phi(z / R) over the zeros of one replicate."""
    if R <= 0:
        raise ConfigError("R must be positive")
    zeros = sample.zeros
    return float(np.sum(phi(zeros / R))) if zeros.size else 0.0


def replicate_statistics(model, spec: SimulationSpec, phi: TestFunction,
                         R: float, threads: int = 1) -> np.ndarray:
    """Array of linear statistics over all replicates of the spec."""
    if spec.window_length < R * phi.support_radius() - 1e-12:
        raise WindowTooSmall(
            f"window {spec.window_length} shorter than R * support radius "
            f"{R * phi.support_radius():.3g}")
    samples = zero_samples(model, spec, threads=threads)
    return np.array([linear_statistic(s, phi, R) for s in samples])


def empirical_moments(model, spec: SimulationSpec, phi: TestFunction, R: float,
                      orders, threads: int = 1, bootstrap: int = 1000
                      ) -> list[MomentEstimate]:
    """Central moments of the linear statistic, centered at the exact mean.

    Centering uses the analytic mean (R/pi) int phi rather than the sample
    mean, which removes O(N^-1/2) centering noise from the higher moments.
    Confidence intervals are seeded percentile bootstraps (level 0.95).
    """
    orders = [int(p) for p in orders]
    if any(p < 1 or p > 6 for p in orders):
        raise ConfigError("moment orders must lie in 1..6")
    stats = replicate_statistics(model, spec, phi, R, threads=threads)
    centered = stats - expected_linear_statistic(phi, R)
    rng = _replicate_rng(spec.master_seed, 0xB00757
                         )
    n = centered.size
    idx = rng.integers(0, n, size=(bootstrap, n))
    out = []
    for p in orders:
        powers = centered ** p
        est = float(powers.mean())
        boot = powers[idx].mean(axis=1)
        lo, hi = np.quantile(boot, [0.025, 0.975])
        out.append(MomentEstimate(order=p, estimate=est, ci_low=float(lo),
                                  ci_high=float(hi), num_samples=n))
    return out


def empirical_k_point(model, spec: SimulationSpec, points, epsilon: float,
                      threads: int = 1) -> tuple[float, float]:
    """Monte Carlo k-point intensity from products of interval counts.

    Averages prod_i card(Z in [x_i - eps, x_i + eps]) over replicates and
    rescales by (2 eps)^-k; the intervals must be disjoint and inside the
    window.
    """
    x = np.sort(np.asarray(points, dtype=float))
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    if x[0] - epsilon < 0 or x[-1] + epsilon > spec.window_length:
        raise IntervalsOverlap("counting intervals leave the window")
    if np.any(np.diff(x) < 2 * epsilon):
        raise IntervalsOverlap("counting intervals overlap")
    k = x.size
    scale = (2.0 * epsilon) ** (-k)
    products = np.empty(spec.num_samples)
    for i, sample in enumerate(zero_samples(model, spec, threads=threads)):
        zeros = sample.zeros
        lo = np.searchsorted(zeros, x - epsilon, side="left")
        hi = np.searchsorted(zeros, x + epsilon, side="right")
        products[i] = float(np.prod(hi - lo))
    mean = float(products.mean())
    stderr = float(products.std(ddof=1) / math.sqrt(products.size)) \
        if products.size > 1 else 0.0
    return mean * scale, stderr * scale


def clt_diagnostic(model, spec: SimulationSpec, phi: TestFunction, R: float,
                   sigma: float, threads: int = 1
                   ) -> tuple[float, list[float]]:
    """Distance of the standardized linear statistic from its Gaussian limit.

    Standardizes each replicate by sqrt(R) * sigma and returns the
    Kolmogorov-Smirnov distance to N(0, ||phi||_L2^2) together with the
    first four standardized sample moments (mean, variance, skewness,
    kurtosis; the Gaussian limit gives 0, ||phi||^2, 0, 3).
    """
    if sigma <= 0:
        raise ConfigError("sigma must be positive (from sigma_squared)")
    stats = replicate_statistics(model, spec, phi, R, threads=threads)
    t = (stats - expected_linear_statistic(phi, R)) / (math.sqrt(R) * sigma)
    from scipy.stats import kstest  # scipy.stats costs ~0.7 s to import

    l2 = math.sqrt(phi.l2_norm_sq())
    ks = float(kstest(t, "norm", args=(0.0, l2)).statistic)
    m = t.mean()
    c = t - m
    v = float(np.mean(c ** 2))
    skew = float(np.mean(c ** 3) / v ** 1.5) if v > 0 else 0.0
    kurt = float(np.mean(c ** 4) / v ** 2) if v > 0 else 0.0
    return ks, [float(m), v, skew, kurt]
