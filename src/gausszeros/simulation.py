"""Sampling of stationary Gaussian paths, zero extraction, and MC diagnostics.

Paths are sampled with their derivative on a uniform grid by one spectral
machine: per FFT mode j of a torus of n nodes a 2 x r factor B_j maps up
to r complex normals to the coefficients of f and f', and the window's M
nodes are read off them per channel by one inverse FFT over the whole
torus or, for short windows, by one product of the draws with the window's
DFT rows (`_SpectralSampler.window`).  Two weight rules feed it.  The
periodic rule (every model, r = 1) takes the model's spectral density at
the FFT frequencies on a period P >= L + reach, with f' the same draw
times i*omega.  The circulant rule (r = 2) factors, mode by mode, the DFT
of the (f, f') covariance wrapped on a smaller torus; it is tried only for
models whose reach is capped (cauchy, sinc) and kept when it draws fewer
normals at no larger covariance error.  Each sampler states that error:
the largest gap between the covariances its weights imply and kappa,
kappa', -kappa'' over the window's lags.  Column s of B_j is drawn only on
its own band |j| <= J_s (the cuts in `_band`): J for the first column and,
for the circulant second column, which carries little mass, a far narrower
J2.  For the FFT the rest of the spectrum is zero padding in buffers that
each pool thread reuses across its batches; the product needs no spectrum.
The real and imaginary parts of one draw are two independent replicates.
Batches hold 2 max(1, 2^18 // (r n)) replicates, and each draws the banded
normals of all its pairs, pair after pair, from one counter-based stream
keyed by (master_seed, first pair of the batch).  So runs are reproducible
bit-for-bit for any thread count, and replicate i depends on the seed,
model, L and h but not on the number of replicates: a short last batch
draws a prefix of a full batch's stream.
Zeros are located by sign changes and polished on the cubic Hermite
interpolant of (f, f') over the bracketing cell by a safeguarded Newton
iteration that never leaves the cell's sign-change bracket; cells whose
last Newton step is not at rounding level are finished by bisection, and
so are cells whose right-end value is at rounding level, on a cubic
written around the nearer node.
The zero sets of all replicates stay in one pooled array (`ZeroSets`) from
the sampler to every statistic, which sums over it with one `bincount`.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .conditioning import _chunk_rng
from .errors import ConfigError, IntervalsOverlap, SizeCap, WindowTooSmall
from .variance import (TestFunction, _erf, _require_scale,
                       expected_linear_statistic)

__all__ = [
    "SimulationSpec",
    "ZeroSample",
    "ZeroSets",
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
# spectral mass (1 + omega^2) g left out of the sampled band: below the
# rounding of kappa(0) = -kappa''(0) = 1
_BAND_TAIL = 2.0 ** -53
# circulant bands: the cut may drop at most this mass, below a tenth of the
# periodization error it competes with (cauchy 1.4e-5 to 4e-5).  With the
# clipped mass alone as the limit, sinc at L = 50 kept 81 of 2000 modes at
# a covariance error of 8.8e-3, most of it from the cut.
_CUT_MASS = 1e-6
_BOOTSTRAP = 1000  # resamples behind each moment's confidence interval
# resample indices drawn at once: 2 MB of int64, so n <= 262 replicates
# take one draw.  A 16 MB block bought no time once the sampler reused its
# buffers, and raised the peak RSS: benchmark montecarlo, 6 alternating
# pairs (2-core host, numpy 2.4), wall 0.970 s with 2 MB blocks against
# 0.981 s with 16 MB ones, job median 0.103 against 0.109 s, peak RSS 104.5
# against 131.9 MB.
_BOOTSTRAP_BLOCK = 1 << 18
_NEWTON_STEPS = 7  # sampled cells converge in 4-6; the rest are bisected
_BELOW_ONE = 1.0 - 2.0 ** -53  # the last double below 1
# |f1| below this times |f0| + h (|f0'| + |f1'|) is within the rounding of
# the cubic's value at t = 1 in powers of t (a bound on its ~10 roundings)
_BLIND_END = 64.0 * 2.0 ** -52
# FFT length cap: 300x the largest benchmark length (28000, cauchy at
# R = 1000).  At the cap, cauchy with 4 replicates on 2 threads peaked at
# 1.7 GB RSS (numpy 2.4, 2-core 8 GB host); memory grows with threads.
_NODE_BUDGET = 1 << 23
# spectrum nodes per batch: a batch holds 2 max(1, _BATCH_NODES // (r n))
# replicates, whose two complex (pairs, n) buffers take at most 8 MB per
# thread; with r = 2 columns, the draws and outputs of 2^18 // n pairs
# would raise the peak (cauchy L = 100, 2000 replicates on 2 threads:
# 30-32 against 15-16 MiB traced)
_BATCH_NODES = 1 << 18
# window evaluator: a product term (normals x M per pair and channel) costs
# 1 / _PRODUCT_SPEED of an FFT operation (n log2 n).  `zero_samples` on 2
# threads (2-core AVX-512 host, numpy 2.4, OpenBLAS 0.3.31), FFT against
# product, by normals M / (n log2 n): bargmann-fock 1.4 (L = 4) 75 -> 54 ms,
# 3.9 (L = 12) 54 -> 42 ms, 6.2 (L = 20) 42 -> 50 ms; tables 1.6 (L = 10)
# 41 -> 24 ms, 3.0 (L = 20) 21 -> 24 ms.  Alone, one product term took
# 0.5-0.6 ns and one FFT operation 1.8-2.5 ns.
_PRODUCT_SPEED = 3.0


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


class ZeroSets(Sequence):
    """Zero sets of n replicates, pooled in one read-only array.

    `zeros` holds each replicate's sorted zeros, replicate after replicate,
    and `rows` the replicate of each zero.  Statistics sum over the pool;
    `len`, indexing and iteration give per-replicate `ZeroSample` views.
    """

    def __init__(self, rows: np.ndarray, zeros: np.ndarray, n: int):
        self.rows, self.zeros, self._n = rows, zeros, n
        rows.flags.writeable = zeros.flags.writeable = False

    @classmethod
    def pool(cls, samples) -> ZeroSets:
        """The pooled form of a sequence of `ZeroSample`s."""
        if isinstance(samples, ZeroSets):
            return samples
        sizes = [s.zeros.size for s in samples]
        zeros = np.concatenate([np.empty(0)] + [s.zeros for s in samples])
        return cls(np.repeat(np.arange(len(sizes)), sizes), zeros, len(sizes))

    @cached_property
    def _bounds(self) -> list[int]:
        ends = np.cumsum(np.bincount(self.rows, minlength=self._n))
        return [0] + ends.tolist()

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        i = operator.index(i)
        if not -self._n <= i < self._n:
            raise IndexError(f"replicate {i} of {self._n}")
        i %= self._n
        return ZeroSample(zeros=self.zeros[self._bounds[i]:self._bounds[i + 1]])

    def __iter__(self):
        b = self._bounds
        return (ZeroSample(zeros=self.zeros[lo:hi])
                for lo, hi in zip(b[:-1], b[1:]))


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
    the search stops at _REACH_CAP, met or not.

    A reach of _REACH_CAP reports that the target was not met (cauchy and
    sinc, whose envelopes decay like x^-3 and 1/x).  For such models the
    periodized covariance is off by more than the target, and the sampler
    also tries circulant weights on smaller tori (`_SpectralSampler`).
    Models without an envelope (tables) get 60 and periodic weights only.
    """
    if model.envelope_start(2) is None:
        return 60.0
    x = max(model.envelope_start(l) for l in range(3))
    while x < _REACH_CAP:
        if max(model.tail_envelope(l, x) for l in range(3)) <= _REACH_TARGET:
            return x
        x *= 1.3
    return _REACH_CAP


def _span(n: int, band: int) -> tuple[int, int]:
    """(lo, hi) of the band |j| <= `band` on n nodes: the modes j = 0..lo-1
    and n-hi..n-1, none of them twice."""
    return band + 1, min(band, n - band - 1)


@dataclass(frozen=True)
class _Torus:
    """Mode weights of a torus of n nodes; column s is cut to its own band
    |j| <= bands[s], with J = bands[0] the widest.

    `factor[c, s, i]` is B_j[c, s] for the i-th mode of the band |j| <= J
    in FFT order (j = 0..lo-1, then n-hi..n-1, with (lo, hi) = `_span(n,
    J)`): row c = 0 gives f and c = 1 gives f'.  Column s draws one complex
    normal per mode of its own band, i.e. its first lo_s and last hi_s
    entries, (lo_s, hi_s) = `spans[s]`; its entries beyond that band are
    not drawn.  The field's covariance matrix at lag t is the real part of
    sum_j B_j B_j^H e^{i omega_j t} over the drawn entries.
    """

    route: str
    n: int
    factor: np.ndarray
    bands: tuple[int, ...]

    @cached_property
    def spans(self) -> list[tuple[int, int]]:
        return [_span(self.n, band) for band in self.bands]

    @property
    def lo(self) -> int:
        return self.spans[0][0]

    @property
    def hi(self) -> int:
        return self.spans[0][1]

    @property
    def modes(self) -> int:
        return self.lo + self.hi

    @property
    def normals(self) -> int:
        """Complex normals a pair draws."""
        return sum(lo + hi for lo, hi in self.spans)

    def covariance(self, m: int) -> np.ndarray:
        """Rows cov(f, f), cov(f', f) and cov(f', f') of the drawn weights
        at lags 0, h, ..., (m-1) h, with f' at the later node."""
        b, n, size = self.factor, self.n, self.modes
        out = np.empty((3, m))
        for row, (c, e) in enumerate(((0, 0), (1, 0), (1, 1))):
            lam = np.zeros(n, dtype=complex)
            for s, (lo, hi) in enumerate(self.spans):
                terms = b[c, s] * b[e, s].conj()
                lam[:lo] += terms[:lo]
                lam[n - hi:] += terms[size - hi:]
            out[row] = np.fft.ifft(lam, norm="forward")[:m].real
        return out


def _band(mass: np.ndarray, limit) -> int:
    """The smallest level J whose dropped mass, the sum of `mass` (one entry
    per level |j| = 0..n//2) over the levels beyond J, is at most `limit`
    (one value, or one per level)."""
    # dropped[J]: the mass of the levels > J, summed from the top
    dropped = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)
    return int(np.argmax(dropped <= limit))


def _periodic_torus(model, n: int, h: float) -> _Torus:
    """Periodization weights: B_j = [a_j, i omega_j a_j] with a_j^2 =
    (2 pi / (n h)) g(omega_j), cut where the dropped mass sum (1 +
    omega_j^2) a_j^2 is at most _BAND_TAIL."""
    omega = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    weight = 2.0 * math.pi / (n * h) * model.spectral_density(omega)
    level = np.minimum(np.arange(n), n - np.arange(n))  # |j| of each mode
    band = _band(np.bincount(level, weights=(1.0 + omega * omega) * weight),
                 _BAND_TAIL)
    lo, hi = _span(n, band)
    kept = np.r_[0:lo, n - hi:n]
    amp = np.sqrt(weight[kept]).astype(complex)
    amp_d = 1j * omega[kept] * amp
    if n % 2 == 0 and lo > n // 2:
        # the Nyquist mode has no sign, so it carries no derivative
        amp_d[n // 2] = 0.0
    return _Torus("periodic", n, np.stack([amp, amp_d])[:, None], (band,))


def _circulant_torus(lags: np.ndarray, n: int, normals: int
                     ) -> _Torus | None:
    """Circulant weights from (kappa, kappa', -kappa'') at lags 0..n//2, or
    None if, uncut, they would draw at least `normals` complex normals a
    pair (2 per mode of the band |j| <= J).

    The covariance of (f, f') wrapped on n nodes (kappa and -kappa'' even,
    kappa' odd and 0 at the antipode of an even n) has per mode the
    Hermitian matrix D [[a, b], [b, d]] D^H, D = diag(1, i), with a, b, d
    real from one real FFT.  A rotation by theta, tan 2 theta = 2 b /
    (a - d), diagonalizes it; eigenvalues below 0 are clipped to 0, which
    leaves B_j = D R diag(sqrt mu+, sqrt mu-).  The band J is cut where
    the dropped trace of B_j B_j^H reaches the clipped mass of the kept
    modes, or _CUT_MASS if that is less.  Only the kept modes are factored.
    The second column, whose squared norm is mu-, is cut on its own at the
    band J2 <= J where its dropped mass, the sum of mu- beyond J2, meets
    the same limit: mu- holds 1.9e-6 of cauchy's mass 2 at L = 100, so J2
    is 29 against J = 944.
    """
    half = n // 2
    level = np.minimum(np.arange(n), n - np.arange(n))
    wrapped = lags[:, level]
    wrapped[1, half + 1:] *= -1.0
    wrapped[1, 0] = 0.0
    pair = np.full(half + 1, 2.0)  # modes per level
    pair[0] = 1.0
    if n % 2 == 0:
        wrapped[1, half] = 0.0
        pair[half] = 1.0
    spec = np.fft.rfft(wrapped, axis=1) / n
    a, d = spec[0].real, spec[2].real
    b = spec[1].imag
    b[0] = 0.0
    if n % 2 == 0:
        b[half] = 0.0
    mid, dev = 0.5 * (a + d), 0.5 * (a - d)
    rad = np.hypot(dev, b)
    mu = np.stack([mid + rad, mid - rad])
    kept_mu = np.maximum(mu, 0.0)
    clipped = np.cumsum((kept_mu - mu).sum(axis=0) * pair)
    limit = np.clip(clipped, _BAND_TAIL, _CUT_MASS)
    band = _band(kept_mu.sum(axis=0) * pair, limit)
    lo, hi = _span(n, band)
    if 2 * (lo + hi) >= normals:
        return None
    # levels of the kept modes in FFT order; mode -j has b -> -b, i.e. the
    # conjugate matrix: the same roots and a sine of the other sign
    kept = np.r_[0:lo, hi:0:-1]
    sign = np.r_[np.ones(lo), -np.ones(hi)]
    b, dev, rad = b[kept], dev[kept], rad[kept]
    root = np.sqrt(kept_mu[:, kept])
    # the larger of cos theta and sin theta from a square root, the other
    # from b, so that neither cancels
    big = np.sqrt(0.5 + 0.5 * np.abs(dev) / np.where(rad > 0.0, rad, 1.0))
    small = np.abs(b) / np.where(rad > 0.0, 2.0 * rad * big, 1.0)
    cos = np.where(dev >= 0.0, big, small)
    sin = sign * np.copysign(np.where(dev >= 0.0, small, big), b)
    factor = np.array([[cos * root[0], -sin * root[1]],
                       [1j * sin * root[0], 1j * cos * root[1]]])
    # the second column's own band: mu- <= mu+ + mu-, so band2 <= band
    return _Torus("circulant", n, factor,
                  (band, _band(kept_mu[1] * pair, limit)))


class _SpectralSampler:
    """(f, f') on the grid of [0, L], as a window of a stationary torus field.

    With step h on a torus of n nodes, the field is sum_j B_j zeta_j
    e^{i omega_j x} over the kept FFT modes |j| <= J, where zeta_j holds r
    complex standard normals, the s-th of them 0 beyond the column's own
    band |j| <= J_s, and the 2 x r factor B_j gives f (row 0) and f' (row
    1).  Two weight rules feed this one machine:

    - periodic (every model): n = P / h with P the smallest fast length >=
      L + reach, and B_j = [a_j, i omega_j a_j], a_j^2 = (2 pi / (n h))
      g(omega_j), r = 1: the covariance is the Riemann sum of int g(xi)
      e^{i xi x} dxi, i.e. kappa periodized with period P, so every lag
      inside [0, L] stays at least P - L >= reach from its nearest
      alias.  J is the smallest index whose dropped mass sum_{|j| > J} (1 + omega_j^2)
      a_j^2 is at most _BAND_TAIL = 2^-53; the mass of g beyond the
      Nyquist frequency pi / h is below 1e-30 for the presets at the
      allowed steps.
    - circulant (r = 2; Wood & Chan 1994, bivariate: Chan & Wood 1999): the
      DFT of the (f, f') covariance wrapped on n nodes, factored per mode
      with negative eigenvalues clipped to 0 (`_circulant_torus`).  The
      grid covariance is exact on every lag up to n h / 2 but for the
      clipped and the dropped mass; the band is cut where the dropped mass
      reaches the clipped mass of the kept modes, or _CUT_MASS = 1e-6, and
      the second column, which carries the small eigenvalue, is cut to its
      own band J2 at the same limit.

    Only when `_correlation_reach` reports its cap (cauchy and sinc) are
    circulant candidates built, on n = fast length of 2 (M - 1), 4 (M - 1),
    ... while n stays below the periodic torus's.  The first whose
    covariance error is at most the periodic one's and that draws fewer
    normals, both with its second column uncut (2 normals per mode of the
    band J), replaces the periodic weights and is drawn with that column
    cut.  The covariance error is the largest |covariance of the drawn
    weights - model| over lags 0..M-1 and the channels (f, f), (f', f)
    and (f', f'), against kappa, kappa' and -kappa''.  `covariance_error`
    states it; for a periodic torus it is computed on first use, since it
    costs a `derivs` call on M lags.  Periodic weights are non-negative
    and negative circulant eigenvalues are clipped, so no embedding can
    fail.

    A batch of `pairs` pairs draws all its normals with one fill of one
    stream, `_chunk_rng(master_seed, first pair)`, pair-major: each pair
    takes the next 2 sum_s (2 J_s + 1) normals, the real and imaginary
    parts of the first normal of every mode of the band J in FFT order, j
    = 0..J, then -J..-1, then of the second normal of every mode of the
    band J2 in the same order.  When no mode can be dropped, all n modes
    are drawn in FFT order.  The draws are a buffer made once per thread
    and reused.  Two evaluators turn them into the window's fields; which
    one runs is `window`, fixed at construction:

    - "fft": the products B_j zeta_j fill the band of a zero-padded
      (pairs, n) spectrum, transformed by one inverse FFT into a second
      buffer per channel.  Both are made once per thread and reused, and
      the part of the spectrum outside the band is never written.
    - "product": one real matrix product per channel, the draws (pairs, 2
      normals) times the window matrix E_c (2 normals, 2 M) with E_c[k, t]
      = B_j[c, s] e^{2 pi i j t / n} for draw k (column s of mode j), in
      real form, so that each pair's output row [Re | Im] is already
      replicates 2 p and 2 p + 1.  No spectrum, no FFT output, no
      interleaving copy.  Its bits do not depend on the pool's thread
      count, but like any BLAS product they may on the BLAS build and on
      its own thread setting: with OPENBLAS_NUM_THREADS=1, a sinc batch at
      L = 4 moved 64 % of its values by up to 1.8e-15.

    The product runs when it costs fewer operations (`normals` x M
    against n log2 n, weighed by _PRODUCT_SPEED) and its two matrices
    take no more memory than the FFT's two buffers: short windows of
    banded spectra, such as tables at L = 2 (41 of 1250 nodes) and the
    k-point window at L = 4.  Long windows keep the FFT.
    """

    def __init__(self, model, spec: SimulationSpec):
        h = spec.grid_step
        self.m, self._h, self._model = spec.grid_size, h, model
        reach = _correlation_reach(model)
        n = int(math.ceil(((self.m - 1) * h + reach) / h))
        if n > _NODE_BUDGET:
            raise SizeCap(
                f"window {spec.window_length:g} at step {h:g} needs an FFT of "
                f"{n} nodes, over the budget of {_NODE_BUDGET}")
        torus = _periodic_torus(model, _next_fast_len(n), h)
        self._error = None
        if reach >= _REACH_CAP:
            torus = self._circulant_choice(torus)
        self._torus = torus
        self.route, self.n, self.lo, self.hi, self.factor, self.spans = (
            torus.route, torus.n, torus.lo, torus.hi, torus.factor,
            torus.spans)
        # pairs per batch: 2^18 // (r n), at least one
        self.pairs = max(1, _BATCH_NODES // (self.n * self.factor.shape[1]))
        self.window = "product" if self._product_pays() else "fft"
        self._matrix = (self._window_matrix() if self.window == "product"
                        else None)
        self._local = threading.local()

    @property
    def modes(self) -> int:
        return self.lo + self.hi

    @property
    def normals(self) -> int:
        """Complex normals a pair draws."""
        return self._torus.normals

    @property
    def covariance_error(self) -> float:
        """Largest |covariance of the weights - model| over lags 0..M-1."""
        if self._error is None:
            self._error = self._error_of(self._torus, self._model_lags(self.m))
        return self._error

    def _model_lags(self, count: int, known: np.ndarray | None = None
                    ) -> np.ndarray:
        """(kappa, kappa', -kappa'') at lags 0..count-1 times h, extending
        `known` (the first lags) by one `derivs` call."""
        start = 0 if known is None else known.shape[1]
        new = self._model.derivs(self._h * np.arange(start, count), 2)
        new[2] *= -1.0
        return new if known is None else np.concatenate([known, new], axis=1)

    def _error_of(self, torus: _Torus, lags: np.ndarray) -> float:
        return float(np.max(np.abs(torus.covariance(self.m)
                                   - lags[:, :self.m])))

    def _circulant_choice(self, periodic: _Torus) -> _Torus:
        """The first circulant candidate that beats `periodic` on normals
        and covariance error, or `periodic`; sets the stated error."""
        lags, scale = None, 2
        while (n := _next_fast_len(scale * (self.m - 1))) < periodic.n:
            lags = self._model_lags(n // 2 + 1, lags)
            torus = _circulant_torus(lags, n, periodic.normals)
            if torus is not None:
                if self._error is None:
                    self._error = self._error_of(periodic, lags)
                # chosen on the uncut weights, both columns on the band J:
                # chosen on the cut ones, cauchy at L = 20 took 1600 nodes
                # at 10x the error of the 3200 it takes (3.7e-5, 3.9e-6)
                uncut = replace(torus, bands=torus.bands[:1] * 2)
                if self._error_of(uncut, lags) <= self._error:
                    self._error = self._error_of(torus, lags)
                    return torus
            scale *= 2
        return periodic

    def _product_pays(self) -> bool:
        """Whether the window product costs fewer operations than the FFT
        and its two matrices take no more memory than the FFT buffers.

        Per pair and channel the product takes `normals` x M complex
        multiply-adds, the FFT about n log2 n operations; one of the
        former costs 1 / _PRODUCT_SPEED of one of the latter.  The matrices
        are 2 x (2 normals, 2 M) doubles, the buffers two complex (pairs,
        n) arrays: 64 normals M against 32 pairs n bytes."""
        work = self.normals * self.m
        return (2 * work <= self.pairs * self.n
                and work < _PRODUCT_SPEED * self.n * math.log2(self.n))

    def _window_matrix(self) -> np.ndarray:
        """(2, 2 normals, 2 M): channel c's field from a pair's draws.

        Entry k of a pair's draws, column s of the mode j, adds zeta_k
        E[k, t], E[k, t] = B_j[c, s] e^{2 pi i j t / n}, to the field at
        node t.  In real form on the interleaved draws (Re zeta_k, Im
        zeta_k), the real part of the field fills columns 0..M-1 and its
        imaginary part columns M..2M-1: row 2 k is [Re E_k | Im E_k] and
        row 2 k + 1 is [-Im E_k | Re E_k]."""
        n, m, size = self.n, self.m, self.modes
        cols, entries, modes = [], [], []
        for s, (lo, hi) in enumerate(self.spans):
            cols.append(np.full(lo + hi, s))
            entries.append(np.r_[0:lo, size - hi:size])
            modes.append(np.r_[0:lo, n - hi:n])
        cols, entries, modes = (np.concatenate(a)
                                for a in (cols, entries, modes))
        # j t mod n in integers: the phase angle is exact to its rounding
        phase = np.exp(2j * math.pi / n * (np.outer(modes, np.arange(m)) % n))
        e = self.factor[:, cols, entries][:, :, None] * phase
        w = np.empty((2, cols.size, 2, 2, m))
        w[:, :, 0, 0], w[:, :, 1, 0] = e.real, -e.imag
        w[:, :, 0, 1], w[:, :, 1, 1] = e.imag, e.real
        return w.reshape(2, 2 * cols.size, 2 * m)

    def sample(self, master_seed: int, pairs: range
               ) -> tuple[np.ndarray, np.ndarray]:
        """Fields of a batch of consecutive pairs: arrays (2 len(pairs), m).

        Row 2 i is the real part and row 2 i + 1 the imaginary part of pair
        p = pairs.start + i, i.e. replicates 2 p and 2 p + 1.  The draws of
        pair p are row i of one fill of `_chunk_rng(master_seed,
        pairs.start)`, `normals` complex values in the layout of the class
        docstring, so a shorter range from the same start gives a prefix
        of the same rows.  The `window` evaluator turns the draws into
        fields: one inverse FFT per channel ("fft"), or one product per
        channel with the window matrix ("product").  The product's row
        bits depend on its row count (numpy/OpenBLAS), so it is always
        taken on blocks of `pairs` rows, the rows past the range padded:
        row i of any range is computed at the same place of the same
        shape.
        """
        rows = len(pairs)
        zeta = self._draws(rows)
        _chunk_rng(master_seed, pairs.start).standard_normal(
            out=zeta[:rows].view(float))
        if self.window == "fft":
            coeffs, field = self._fft_buffers(rows)
            return (self._fft_window(self.factor[0], zeta, coeffs, field),
                    self._fft_window(self.factor[1], zeta, coeffs, field))
        blocks = zeta.view(float).reshape(-1, self.pairs, 2 * self.normals)
        return tuple(np.matmul(blocks, w).reshape(-1, self.m)[:2 * rows]
                     for w in self._matrix)

    def _draws(self, rows: int) -> np.ndarray:
        """The calling thread's draws buffer, made at the first call that
        needs `rows` rows and reused after: `rows` rows for the FFT, whole
        blocks of `pairs` rows for the product.  Made zero-filled, so the
        product's padding rows are finite."""
        if self.window == "product":
            rows = -(-rows // self.pairs) * self.pairs
        zeta = getattr(self._local, "zeta", None)
        if zeta is None or zeta.shape[0] < rows:
            zeta = self._local.zeta = np.zeros((rows, self.normals),
                                               dtype=complex)
        return zeta[:rows]

    def _fft_buffers(self, rows: int):
        """The calling thread's zero-padded spectrum and FFT output, made
        at the first call that needs `rows` rows and reused after.  Only
        the band of the spectrum is ever written."""
        bufs = getattr(self._local, "fft", None)
        if bufs is None or bufs[0].shape[0] < rows:
            bufs = self._local.fft = (np.zeros((rows, self.n), dtype=complex),
                                      np.empty((rows, self.n), dtype=complex))
        return tuple(b[:rows] for b in bufs)

    def _fft_window(self, b, zeta, coeffs, field) -> np.ndarray:
        n, size, (lo, hi) = self.n, self.modes, self.spans[0]
        np.multiply(b[0, :lo], zeta[:, :lo], out=coeffs[:, :lo])
        np.multiply(b[0, lo:], zeta[:, lo:size], out=coeffs[:, n - hi:])
        # each further column adds the draws that follow on its own band
        at = size
        for s, (lo, hi) in enumerate(self.spans[1:], 1):
            z = zeta[:, at:at + lo + hi]
            coeffs[:, :lo] += b[s, :lo] * z[:, :lo]
            coeffs[:, n - hi:] += b[s, size - hi:] * z[:, lo:]
            at += lo + hi
        np.fft.ifft(coeffs, axis=1, norm="forward", out=field)
        out = np.empty((2 * field.shape[0], self.m))
        out[0::2] = field[:, :self.m].real
        out[1::2] = field[:, :self.m].imag
        return out


def _hermite_roots_batch(f0, d0, f1, d1, h: float) -> np.ndarray:
    """Roots in (0, 1) of the cubic Hermite interpolants, one per bracket.

    The cubic p is scaled by sign(f0), which flips signs exactly, so p > 0
    at t = 0 and p < 0 at t = 1.  Each cell keeps a bracket [lo, hi] with
    p(lo) > 0 >= p(hi) from every value it computes, starts at the secant
    point of its ends and takes safeguarded Newton steps: a step that
    leaves the bracket is replaced by its midpoint.  A cell whose last
    step is not at rounding level after _NEWTON_STEPS steps is finished
    by bisection on its own bracket.  So every root stays in its bracket
    without condition; on sampled paths it is within 4 ulps of 60
    bisection halvings on [0, 1], the kernel this one replaced, at a fifth
    of the cost.

    In powers of t, p near t = 1 sums terms of the size of |f0| and h |f'|,
    so where |f1| is at their rounding level the computed p has no sign
    there and the Newton bracket cannot be trusted.  Such cells are
    bisected afresh on [0, 1], with p evaluated in powers of t - 1 beyond
    t = 1/2, where p(1) = -|f1| is exact.
    """
    s = np.sign(f0)
    a = s * f0
    b = s * (h * d0)
    c = s * (3.0 * (f1 - f0) - h * (2.0 * d0 + d1))
    d = s * (-2.0 * (f1 - f0) + h * (d0 + d1))
    c2, d3 = 2.0 * c, 3.0 * d
    lo = np.zeros_like(a)
    hi = np.ones_like(a)
    # p(1) < 0 is known, but its computed value can have either sign when
    # |f1| is at rounding level: neither the start nor a step reaches t = 1
    t = np.minimum(a / (a - s * f1), _BELOW_ONE)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            val = ((d * t + c) * t + b) * t + a
            pos = val > 0.0
            lo = np.where(pos, t, lo)
            hi = np.where(pos, hi, t)
            new = t - val / ((d3 * t + c2) * t + b)
            # a NaN or infinite step (zero slope) fails the test too
            inside = (new >= lo) & (new <= hi) & (new < 1.0)
            new = np.where(inside, new, 0.5 * (lo + hi))
            step = np.abs(new - t)
            t = new
    blind = np.abs(f1) <= _BLIND_END * (a + np.abs(b) + h * np.abs(d1))
    r = np.nonzero((step > 2.0 * np.spacing(t)) | blind)[0]
    if r.size:
        blind = blind[r]
        near1 = (s[r] * f1[r], s[r] * (h * d1[r]),
                 s[r] * (-3.0 * (f1[r] - f0[r]) + h * (d0[r] + 2.0 * d1[r])))
        t[r] = _bisect((a[r], b[r], c[r], d[r]), near1, np.where(blind, 0.5, 1.0),
                       np.where(blind, 0.0, lo[r]), np.where(blind, 1.0, hi[r]))
    return t


def _bisect(coef, near1, split, lo, hi) -> np.ndarray:
    """Bisection of p on brackets with p(lo) > 0 >= p(hi), until no midpoint
    falls strictly inside (at most ~1100 steps, the exponent range of a
    double).  p(t) is a + t (b + t (c + t d)) with (a, b, c, d) = coef, or,
    for t > split, a1 + u (b1 + u (c1 + u d)) in u = t - 1 with
    (a1, b1, c1) = near1."""
    a, b, c, d = coef
    a1, b1, c1 = near1
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((mid > lo) & (mid < hi)):
            return mid
        u = mid - 1.0
        pos = np.where(mid > split, ((d * u + c1) * u + b1) * u + a1,
                       ((d * mid + c) * mid + b) * mid + a) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)


def _zeros_from_batch(f: np.ndarray, fp: np.ndarray, spec: SimulationSpec
                      ) -> ZeroSets:
    """Sorted zeros in [0, L] of every path of a batch, with no per-path loop.

    The batch is read as one flat array of rows after rows: one sign mask
    and its shift give every cell whose ends differ in sign, including the
    cells that join a row to the next, which are dropped.  Their flat
    indices come out sorted, so bracket roots are sorted within each row.
    Nodes where f is exactly 0 are merged in by one sort; they never
    coincide with a root, since a bracket needs non-zero ends.
    """
    h, m = spec.grid_step, f.shape[1]
    flat, flat_d = f.ravel(), fp.ravel()
    # signs, not the product f_i f_i+1, which can underflow to 0
    neg = flat < 0.0
    cells = np.flatnonzero(neg[1:] != neg[:-1])
    hit = flat == 0.0
    any_hit = bool(hit.any())
    if any_hit:
        # a 0 (or -0.0) end counts as non-negative above: no bracket
        cells = cells[~(hit[cells] | hit[cells + 1])]
    cells = cells[cells % m != m - 1]
    rows, cols = np.divmod(cells, m)
    t = _hermite_roots_batch(flat[cells], flat_d[cells], flat[cells + 1],
                             flat_d[cells + 1], h)
    zeros = (cols + t) * h
    if any_hit:
        hit_rows, hit_cols = np.divmod(np.flatnonzero(hit), m)
        rows = np.concatenate([rows, hit_rows])
        zeros = np.concatenate([zeros, hit_cols * h])
        order = np.lexsort((zeros, rows))
        rows, zeros = rows[order], zeros[order]
    inside = (zeros >= 0.0) & (zeros <= spec.window_length)
    return ZeroSets(rows[inside], zeros[inside], f.shape[0])


def zero_samples(model, spec: SimulationSpec, threads: int = 1) -> ZeroSets:
    """Zero sets of all replicates, batched over a pool of threads.

    Batches hold 2 `pairs` = 2 max(1, _BATCH_NODES // (r n)) replicates
    for a torus of n nodes and a factor of r columns, and start at even
    replicates, so each holds whole pairs; with an odd `num_samples` the
    last pair gives only its real part.  The pool has min(threads,
    batches, CPU count) workers, each with its own draws buffer (and FFT
    buffers if the window is read off the FFT); the bits do not depend on
    it.
    """
    if threads < 1:
        raise ConfigError(f"need at least one thread, got {threads}")
    sampler = _SpectralSampler(model, spec)
    batch = 2 * sampler.pairs
    batches = [range(s, min(s + batch, spec.num_samples))
               for s in range(0, spec.num_samples, batch)]

    def work(reps):
        f, fp = sampler.sample(spec.master_seed,
                               range(reps.start // 2, (reps.stop + 1) // 2))
        return _zeros_from_batch(f[:len(reps)], fp[:len(reps)], spec)

    workers = min(threads, len(batches), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunks = list(pool.map(work, batches))
    rows = [c.rows + reps.start for c, reps in zip(chunks, batches)]
    return ZeroSets(np.concatenate(rows),
                    np.concatenate([c.zeros for c in chunks]),
                    spec.num_samples)


def linear_statistic(samples: Sequence[ZeroSample], phi: TestFunction,
                     R: float) -> np.ndarray:
    """Sum of phi(z / R) over the zeros of each replicate: one value each.

    The package's one sum over zeros: a single `np.bincount` over the
    pooled zeros of all replicates (`ZeroSets`, or any sequence of
    `ZeroSample`s, pooled first), adding each replicate's terms in zero
    order.
    """
    _require_scale("R", R)
    pooled = ZeroSets.pool(samples)
    return np.bincount(pooled.rows, weights=phi(pooled.zeros / R),
                       minlength=len(pooled))


def replicate_statistics(model, spec: SimulationSpec, phi: TestFunction,
                         R: float, threads: int = 1) -> np.ndarray:
    """Array of linear statistics over all replicates of the spec."""
    _require_window(spec, phi, R)
    return linear_statistic(zero_samples(model, spec, threads=threads), phi, R)


def _require_window(spec: SimulationSpec, phi: TestFunction, R: float):
    """Refuse phi(x / R) unless its support lies in the sampled [0, L]."""
    _require_scale("R", R)
    lo, hi = phi.support()
    if lo < 0.0 or spec.window_length < R * hi - 1e-12:
        raise WindowTooSmall(
            f"test function support [{lo:g}, {hi:g}] times R = {R:g} leaves "
            f"the sampled window [0, {spec.window_length:g}]")


def _require_orders(orders) -> list[int]:
    """The moment orders as ints, refused unless each lies in 1..6."""
    orders = [int(p) for p in orders]
    if any(p < 1 or p > 6 for p in orders):
        raise ConfigError("moment orders must lie in 1..6")
    return orders


def empirical_moments(model, spec: SimulationSpec, phi: TestFunction, R: float,
                      orders, threads: int = 1) -> list[MomentEstimate]:
    """Central moments of the linear statistic, centered at the exact mean.

    Centering uses the analytic mean (R/pi) int phi rather than the sample
    mean, which removes O(N^-1/2) centering noise from the higher moments.
    Confidence intervals are seeded percentile bootstraps (level 0.95,
    _BOOTSTRAP resamples); they need at least two replicates.  The
    resample indices are drawn in blocks of rows of at most
    _BOOTSTRAP_BLOCK entries, which continue one stream: the same indices
    as a single draw, in bounded memory.
    """
    orders = _require_orders(orders)
    _require_replicates(spec)
    stats = replicate_statistics(model, spec, phi, R, threads=threads)
    centered = stats - expected_linear_statistic(phi, R)
    rng = _chunk_rng(spec.master_seed, 0xB00757)
    n = centered.size
    powers = [centered ** p for p in orders]
    boot = np.empty((len(orders), _BOOTSTRAP))
    rows = max(1, _BOOTSTRAP_BLOCK // n)
    for start in range(0, _BOOTSTRAP, rows):
        stop = min(start + rows, _BOOTSTRAP)
        idx = rng.integers(0, n, size=(stop - start, n))
        for b, pw in zip(boot, powers):
            b[start:stop] = pw[idx].mean(axis=1)
    out = []
    for p, pw, b in zip(orders, powers, boot):
        est = float(pw.mean())
        lo, hi = np.quantile(b, [0.025, 0.975])
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
    collapsed = x - epsilon >= x + epsilon
    if np.any(collapsed):
        xi = float(x[collapsed][0])
        raise ConfigError(
            f"epsilon {epsilon:g} is below the rounding of point {xi!r}: its "
            f"counting interval [{xi - epsilon!r}, {xi + epsilon!r}] "
            "collapses to one value")
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
