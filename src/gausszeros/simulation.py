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

from .conditioning import _chunk_rng
from .errors import ConfigError, IntervalsOverlap, SizeCap, WindowTooSmall
from .variance import (TestFunction, _erf, _require_scale,
                       expected_linear_statistic)

__all__ = [
    "SimulationSpec",
    "ZeroSample",
    "MomentEstimate",
    "linear_statistic",
    "empirical_moments",
    "empirical_k_point",
    "clt_diagnostic",
    "replicate_statistics",
    "zero_samples",
]

_REACH_TARGET = 1e-9  # periodization: |kappa^(l)| below this beyond the reach
_REACH_CAP = 400.0
_BOOTSTRAP = 1000  # resamples behind each moment's confidence interval
# FFT length cap: 300x the largest benchmark length (28000, cauchy at
# R = 1000).  At the cap, cauchy with 4 replicates on 2 threads peaked at
# 1.7 GB RSS (numpy 2.4, 2-core 8 GB host); memory grows with threads.
_NODE_BUDGET = 1 << 23


@dataclass(frozen=True)
class SimulationSpec:
    """Window [0, L], grid and replication controls for path sampling."""

    window_length: float
    grid_step: float = 0.05
    num_samples: int = 1
    master_seed: int = 0

    def __post_init__(self):
        _require_scale("window length", self.window_length)
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


@dataclass(frozen=True)
class MomentEstimate:
    """A central-moment estimate with a bootstrap confidence interval."""

    order: int
    estimate: float
    ci_low: float
    ci_high: float
    num_samples: int


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n: a fast length for a complex FFT."""
    n = max(n, 1)
    while True:
        r = n
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def _correlation_reach(model) -> float:
    """Radius beyond which kappa, kappa', kappa'' fall below _REACH_TARGET;
    the search stops at _REACH_CAP, met or not."""
    if model.envelope_start(2) is None:
        return 60.0
    x = max(model.envelope_start(l) for l in range(3))
    while x < _REACH_CAP:
        if max(model.tail_envelope(l, x) for l in range(3)) <= _REACH_TARGET:
            return x
        x *= 1.3
    return _REACH_CAP


class _SpectralSampler:
    """(f, f') on the grid of [0, L], as a window of a stationary torus field.

    With step h and n = P / h nodes, the field is sum_j a_j zeta_j
    e^{i omega_j x} over the FFT frequencies omega_j, with complex standard
    normal zeta_j and a_j^2 = (2 pi / (n h)) g(omega_j): its covariance is
    the Riemann sum of int g(xi) e^{i xi x} dxi, i.e. kappa periodized with
    period P, up to the mass of g beyond the Nyquist frequency pi / h
    (below 1e-30 for the presets at the allowed steps).  Every lag inside
    [0, L] stays at least P - L >= reach from its nearest alias.  The
    spectral weights are non-negative by construction, so no embedding can
    fail.
    """

    def __init__(self, model, spec: SimulationSpec):
        self.m = spec.grid_size
        h = spec.grid_step
        span = (self.m - 1) * h + _correlation_reach(model)
        n = int(math.ceil(span / h))
        if n > _NODE_BUDGET:
            raise SizeCap(
                f"window {spec.window_length:g} at step {h:g} needs an FFT of "
                f"{n} nodes, over the budget of {_NODE_BUDGET}")
        self.n = _next_fast_len(n)
        omega = 2.0 * math.pi * np.fft.fftfreq(self.n, d=h)
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
        normals = zeta.view(float)
        rng = None
        for row, pair in enumerate(pairs):
            rng = _chunk_rng(master_seed, pair, rng)
            rng.standard_normal(out=normals[row])
        return (self._window(self.amp * zeta),
                self._window(self.amp_d * zeta))

    def _window(self, coeffs: np.ndarray) -> np.ndarray:
        field = np.fft.ifft(coeffs, axis=1, norm="forward")[:, :self.m]
        out = np.empty((2 * field.shape[0], self.m))
        out[0::2] = field.real
        out[1::2] = field.imag
        return out


def _hermite_roots_batch(f0, d0, f1, d1, h: float) -> np.ndarray:
    """Roots in (0, 1) of the cubic Hermite interpolants, one per bracket.

    All brackets have a sign change, so bisection on the cubic converges
    unconditionally; 60 halvings reach full double precision.  The cubic
    is scaled by sign(f0), which flips signs exactly, so "same sign as at
    t = 0" is "positive"; Horner's rule runs in place in one buffer.
    """
    s = np.sign(f0)
    a = s * f0
    b = s * (h * d0)
    c = s * (3.0 * (f1 - f0) - h * (2.0 * d0 + d1))
    d = s * (-2.0 * (f1 - f0) + h * (d0 + d1))
    lo = np.zeros_like(f0)
    hi = np.ones_like(f0)
    mid = np.empty_like(f0)
    val = np.empty_like(f0)
    same = np.empty(f0.shape, dtype=bool)
    for _ in range(60):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.multiply(mid, d, out=val)  # a + t (b + t (c + t d)) at t = mid
        val += c
        val *= mid
        val += b
        val *= mid
        val += a
        np.greater(val, 0.0, out=same)
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _zeros_from_batch(f: np.ndarray, fp: np.ndarray, spec: SimulationSpec
                      ) -> list[np.ndarray]:
    """Sorted zeros in [0, L] of every path of a batch, with no per-path loop.

    Bracket roots come out of the row-major `np.nonzero` sorted within each
    row.  Nodes where f is exactly 0 are merged in by one sort; they never
    coincide with a root, since a bracket needs non-zero ends.
    """
    h = spec.grid_step
    sign_change = (f[:, :-1] * f[:, 1:]) < 0.0
    rows, cols = np.nonzero(sign_change)
    t = _hermite_roots_batch(f[rows, cols], fp[rows, cols],
                             f[rows, cols + 1], fp[rows, cols + 1], h)
    zeros = (cols + t) * h
    hit_rows, hit_cols = np.nonzero(f == 0.0)
    if hit_rows.size:
        rows = np.concatenate([rows, hit_rows])
        zeros = np.concatenate([zeros, hit_cols * h])
        order = np.lexsort((zeros, rows))
        rows, zeros = rows[order], zeros[order]
    inside = (zeros >= 0.0) & (zeros <= spec.window_length)
    rows, zeros = rows[inside], zeros[inside]
    ends = np.cumsum(np.bincount(rows, minlength=f.shape[0]))
    return np.split(zeros, ends[:-1])


def zero_samples(model, spec: SimulationSpec, threads: int = 1
                 ) -> list[ZeroSample]:
    """Zero sets of all replicates, batched over a pool of `threads` threads.

    Batches start at even replicates, so each holds whole pairs; with an
    odd `num_samples` the last pair gives only its real part.
    """
    if threads < 1:
        raise ConfigError(f"need at least one thread, got {threads}")
    sampler = _SpectralSampler(model, spec)
    batch = 2 * max(1, min(256, (1 << 18) // sampler.n))
    batches = [range(s, min(s + batch, spec.num_samples))
               for s in range(0, spec.num_samples, batch)]

    def work(reps):
        f, fp = sampler.sample(spec.master_seed,
                               range(reps.start // 2, (reps.stop + 1) // 2))
        return _zeros_from_batch(f[:len(reps)], fp[:len(reps)], spec)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = list(pool.map(work, batches))
    return [ZeroSample(zeros=z) for zero_lists in chunks for z in zero_lists]


def linear_statistic(samples: list[ZeroSample], phi: TestFunction, R: float
                     ) -> np.ndarray:
    """Sum of phi(z / R) over the zeros of each replicate: one value each.

    The package's one sum over zeros: a single `np.bincount` over the
    pooled zeros of all replicates, adding each replicate's terms in zero
    order.
    """
    _require_scale("R", R)
    rows = np.repeat(np.arange(len(samples)), [s.zeros.size for s in samples])
    zeros = np.concatenate([np.empty(0)] + [s.zeros for s in samples])
    return np.bincount(rows, weights=phi(zeros / R), minlength=len(samples))


def replicate_statistics(model, spec: SimulationSpec, phi: TestFunction,
                         R: float, threads: int = 1) -> np.ndarray:
    """Array of linear statistics over all replicates of the spec."""
    _require_scale("R", R)
    if spec.window_length < R * phi.support_radius() - 1e-12:
        raise WindowTooSmall(
            f"window {spec.window_length} shorter than R * support radius "
            f"{R * phi.support_radius():.3g}")
    return linear_statistic(zero_samples(model, spec, threads=threads), phi, R)


def empirical_moments(model, spec: SimulationSpec, phi: TestFunction, R: float,
                      orders, threads: int = 1) -> list[MomentEstimate]:
    """Central moments of the linear statistic, centered at the exact mean.

    Centering uses the analytic mean (R/pi) int phi rather than the sample
    mean, which removes O(N^-1/2) centering noise from the higher moments.
    Confidence intervals are seeded percentile bootstraps (level 0.95,
    _BOOTSTRAP resamples); they need at least two replicates.
    """
    orders = [int(p) for p in orders]
    if any(p < 1 or p > 6 for p in orders):
        raise ConfigError("moment orders must lie in 1..6")
    _require_replicates(spec)
    stats = replicate_statistics(model, spec, phi, R, threads=threads)
    centered = stats - expected_linear_statistic(phi, R)
    rng = _chunk_rng(spec.master_seed, 0xB00757)
    n = centered.size
    idx = rng.integers(0, n, size=(_BOOTSTRAP, n))
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
    window, and the standard error needs at least two replicates.
    """
    _require_replicates(spec)
    x = np.asarray(points, dtype=float)
    _require_scale("epsilon", epsilon)
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        raise ConfigError("points must be a non-empty list of finite numbers, "
                          f"got {points!r}")
    x = np.sort(x)
    if x[0] - epsilon < 0 or x[-1] + epsilon > spec.window_length:
        raise IntervalsOverlap("counting intervals leave the window")
    if np.any(np.diff(x) < 2 * epsilon):
        raise IntervalsOverlap("counting intervals overlap")
    k = x.size
    scale = (2.0 * epsilon) ** (-k)
    intervals = [TestFunction.indicator(xi - epsilon, xi + epsilon)
                 for xi in x]
    samples = zero_samples(model, spec, threads=threads)
    # counts are small integers, so their float products are exact
    products = np.ones(spec.num_samples)
    for interval in intervals:
        products *= linear_statistic(samples, interval, 1.0)
    mean = float(products.mean())
    stderr = float(products.std(ddof=1) / math.sqrt(products.size))
    return mean * scale, stderr * scale


def _require_replicates(spec: SimulationSpec):
    """Refuse a single replicate, whose spread states no error."""
    if spec.num_samples < 2:
        raise ConfigError("need at least two replicates to state an error, "
                          f"got {spec.num_samples}")


def clt_diagnostic(model, spec: SimulationSpec, phi: TestFunction, R: float,
                   sigma: float, threads: int = 1
                   ) -> tuple[float, list[float]]:
    """Distance of the standardized linear statistic from its Gaussian limit.

    Standardizes each replicate by sqrt(R) * sigma and returns the
    Kolmogorov-Smirnov distance to N(0, ||phi||_L2^2) together with the
    first four standardized sample moments (mean, variance, skewness,
    kurtosis; the Gaussian limit gives 0, ||phi||^2, 0, 3).
    """
    _require_scale("sigma", sigma)
    stats = replicate_statistics(model, spec, phi, R, threads=threads)
    t = (stats - expected_linear_statistic(phi, R)) / (math.sqrt(R) * sigma)
    ks = _ks_distance(t, math.sqrt(phi.l2_norm_sq()))
    m = t.mean()
    c = t - m
    v = float(np.mean(c ** 2))
    skew = float(np.mean(c ** 3) / v ** 1.5) if v > 0 else 0.0
    kurt = float(np.mean(c ** 4) / v ** 2) if v > 0 else 0.0
    return ks, [float(m), v, skew, kurt]


def _ks_distance(t: np.ndarray, scale: float) -> float:
    """Two-sided Kolmogorov-Smirnov distance of sample t to N(0, scale^2)."""
    cdf = 0.5 * (1.0 + _erf(np.sort(t) / (scale * math.sqrt(2.0))))
    steps = np.arange(t.size + 1) / t.size
    return float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))
