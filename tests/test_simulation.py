import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gausszeros.conditioning import _chunk_rng
from gausszeros.errors import (ConfigError, IntervalsOverlap, SizeCap,
                               WindowTooSmall)
from gausszeros.densities import rho_k
from gausszeros.partitions import predicted_central_moment
from gausszeros.models import CauchyModel
from gausszeros import simulation
from gausszeros.simulation import (SimulationSpec, _circulant_torus,
                                   _correlation_reach, _hermite_roots_batch,
                                   _ks_distance, _next_fast_len,
                                   _periodic_torus, _SpectralSampler,
                                   _zeros_from_batch,
                                   clt_diagnostic, empirical_k_point,
                                   empirical_moments, linear_statistic,
                                   replicate_statistics, zero_samples)
from gausszeros.variance import (TestFunction, expected_linear_statistic,
                                 predicted_covariance, two_point_F)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SimulationSpec(window_length=10.0, grid_step=0.2)
    with pytest.raises(ConfigError):
        SimulationSpec(window_length=-1.0)
    for length in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="window length"):
            SimulationSpec(window_length=length)


def test_oversized_grid_refused_before_allocating(bf):
    # L = 1e9 at step 0.05 would need an FFT of 2e10 nodes
    start = time.perf_counter()
    with pytest.raises(SizeCap, match="20000.* nodes"):
        zero_samples(bf, SimulationSpec(1e9, num_samples=2))
    assert time.perf_counter() - start < 1.0


SAMPLED_MODELS = ("bf", "sinc", "cauchy", "table")


@pytest.fixture(scope="module")
def sampled_fields(request):
    """Per model: (model, f, f') of 10000 replicates on [0, 3]."""
    spec = SimulationSpec(window_length=3.0, grid_step=0.05,
                          num_samples=10_000, master_seed=1)
    out = {}
    for name in SAMPLED_MODELS:
        model = request.getfixturevalue(name)
        sampler = _SpectralSampler(model, spec)
        # 100 pairs at a time keeps the full-period draws small
        parts = [sampler.sample(spec.master_seed, range(s, s + 100))
                 for s in range(0, spec.num_samples // 2, 100)]
        out[name] = (model, np.concatenate([p[0] for p in parts]),
                     np.concatenate([p[1] for p in parts]))
    return out


def _assert_covariance(a, b, target, what):
    # stationarity: average the products over node pairs within a replicate;
    # replicates are independent, which gives the standard error
    prod = (a * b).mean(axis=1)
    se = prod.std(ddof=1) / math.sqrt(prod.size)
    assert abs(prod.mean() - target) < 3.0 * se, (what, prod.mean(), target, se)


def test_sampler_marginals(sampled_fields):
    # lag 0: unit variances of f and f', and f, f' uncorrelated at a node
    for name, (_, f, fp) in sampled_fields.items():
        _assert_covariance(f, f, 1.0, (name, "ff"))
        _assert_covariance(fp, fp, 1.0, (name, "f'f'"))
        _assert_covariance(f, fp, 0.0, (name, "ff'"))


def test_sampler_cross_covariance(sampled_fields):
    # lag 1 (20 nodes): kappa(1), kappa'(1) and -kappa''(1)
    lag = 20
    for name, (model, f, fp) in sampled_fields.items():
        k0, k1, k2 = model.derivs(1.0, 2)
        _assert_covariance(f[:, :-lag], f[:, lag:], k0, (name, "ff"))
        _assert_covariance(f[:, :-lag], fp[:, lag:], k1, (name, "ff'"))
        _assert_covariance(fp[:, :-lag], fp[:, lag:], -k2, (name, "f'f'"))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    assert all(_next_fast_len(n) == next_fast_len(n) for n in range(1, 30000))


def test_extract_zeros_sine_path():
    spec = SimulationSpec(window_length=10.0, grid_step=0.05, num_samples=1)
    grid = np.arange(spec.grid_size) * spec.grid_step
    zs = _zeros_from_batch(np.sin(grid)[None], np.cos(grid)[None],
                           spec)[0].zeros
    expect = np.array([0.0, math.pi, 2 * math.pi, 3 * math.pi])
    np.testing.assert_allclose(zs, expect, atol=1e-8)


def test_sign_change_below_the_underflow_of_products():
    # f1 f2 = -1e-400 underflows to -0.0; the signs still differ, and the
    # symmetric cubic on that cell crosses at its midpoint
    f = np.array([[1.0, 1e-200, -1e-200, -1.0]])
    spec = SimulationSpec(window_length=0.15, grid_step=0.05)
    zs = _zeros_from_batch(f, np.zeros_like(f), spec)
    assert zs.zeros.tolist() == pytest.approx([0.075], abs=1e-15)


def test_zero_refinement_grid_consistency():
    # the same smooth path sampled at h and h/2 (shared nodes) must give
    # zeros within 10 h^2 of each other
    f = lambda x: np.sin(1.3 * x + 0.4) + 0.2 * np.sin(0.37 * x)
    fp = lambda x: 1.3 * np.cos(1.3 * x + 0.4) + 0.074 * np.cos(0.37 * x)
    h = 0.05
    spec_h = SimulationSpec(window_length=20.0, grid_step=h, num_samples=1)
    spec_h2 = SimulationSpec(window_length=20.0, grid_step=h / 2, num_samples=1)
    gh = np.arange(spec_h.grid_size) * h
    gh2 = np.arange(spec_h2.grid_size) * (h / 2)
    z1 = _zeros_from_batch(f(gh)[None], fp(gh)[None], spec_h)[0].zeros
    z2 = _zeros_from_batch(f(gh2)[None], fp(gh2)[None], spec_h2)[0].zeros
    assert z1.size == z2.size
    assert np.max(np.abs(z1 - z2)) < 10 * h * h


def _philox_stream(seed, index):
    # the stream contract: a fresh Philox keyed by (seed mod 2^64, index)
    return np.random.Generator(np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


class _WideBand(CauchyModel):
    """A density too wide to drop any mode.  Its zero tail envelope gives a
    short reach, so it keeps the periodic weights: cauchy's `derivs`, which
    circulant weights would be built from, are not its covariance."""

    def spectral_density(self, xi):
        return np.exp(-np.abs(np.asarray(xi, dtype=float)) / 8.0) / 16.0

    def tail_envelope(self, order, x):
        return 0.0


def _full_band(model, spec, n):
    """Complex amplitudes of f and f' on all n FFT modes, in FFT order."""
    h = spec.grid_step
    omega = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    amp = np.sqrt(2.0 * math.pi / (n * h) * model.spectral_density(omega))
    amp = amp.astype(complex)
    amp_d = 1j * omega * amp
    if n % 2 == 0:
        amp_d[n // 2] = 0.0
    return omega, amp, amp_d


def _kept(torus):
    return np.r_[0:torus.lo, torus.n - torus.hi:torus.n]


def _drawn(torus, s):
    """Entries of the factor that column s draws: its own band's modes
    among the kept ones."""
    (lo, hi), size = torus.spans[s], torus.lo + torus.hi
    return np.r_[0:lo, size - hi:size]


def _evaluated(sampler, coeffs, draws):
    """Fields of one channel by the sampler's evaluator, rebuilt: per pair
    (a row of `draws`, one complex normal per kept mode) the kept modes
    times `coeffs`, real and imaginary parts interleaved.  "fft": one
    inverse FFT over all n modes.  "product": the draws in real form times
    the window's DFT rows, E[k, t] = coeffs_k e^{2 pi i j_k t / n}, at the
    batch's full row count."""
    rows, kept, m, n = draws.shape[0], _kept(sampler), sampler.m, sampler.n
    if sampler.window == "fft":
        spectrum = np.zeros((rows, n), dtype=complex)
        spectrum[:, kept] = coeffs * draws
        field = np.fft.ifft(spectrum, axis=1, norm="forward")[:, :m]
        out = np.empty((2 * rows, m))
        out[0::2], out[1::2] = field.real, field.imag
        return out
    e = coeffs[:, None] * np.exp(2j * math.pi / n
                                 * (np.outer(kept, np.arange(m)) % n))
    # rows (Re zeta_k, Im zeta_k): [Re E | Im E] and [-Im E | Re E]
    w = np.stack([np.c_[e.real, e.imag], np.c_[-e.imag, e.real]], axis=1)
    padded = np.zeros((sampler.pairs, kept.size), dtype=complex)
    padded[:rows] = draws
    field = padded.view(float) @ w.reshape(2 * kept.size, 2 * m)
    return field[:rows].reshape(2 * rows, m)


@pytest.mark.parametrize("seed", [0, 123, 2 ** 63 + 5, 2 ** 64 - 1])
def test_batch_stream_matches_fresh_philox(bf, seed):
    n = 101
    for index in (9, 2, 0, 40_000, 2 ** 64 - 1):
        assert _same_bits(_chunk_rng(seed, index).standard_normal(2 * n),
                          _philox_stream(seed, index).standard_normal(2 * n))
    # a batch of pairs first..first + rows - 1, against one fresh stream
    # keyed by its first pair: pair-major rows of 2 (2 J + 1) normals, to
    # the modes 0..J, -J..-1; with no mode dropped (the wide band) rows of
    # 2 n normals, to every mode in FFT order.  Bargmann-fock reads its
    # window off one product with the window's DFT rows, the wide band's
    # 50-node torus off the FFT; each is checked on the other evaluator
    # too, with the product priced out or in.
    spec = SimulationSpec(window_length=2.0, num_samples=2, master_seed=seed)
    wide = _WideBand()
    samplers = [(bf, _SpectralSampler(bf, spec)),
                (bf, _forced(bf, spec, "fft")),
                (wide, _SpectralSampler(wide, spec)),
                (wide, _forced(wide, spec, "product"))]
    assert [s.window for _, s in samplers] == ["product", "fft", "fft",
                                               "product"]
    for model, sampler in samplers:
        assert sampler.route == "periodic"
        kept = _kept(sampler)
        if model is bf:
            assert sampler.hi == sampler.lo - 1 and 2 * kept.size < sampler.n
        else:
            assert sampler.lo + sampler.hi == sampler.n
        first, rows = 5, 4
        draws = _philox_stream(seed, first).standard_normal(
            rows * 2 * kept.size).view(complex).reshape(rows, kept.size)
        _, amp, amp_d = _full_band(model, spec, sampler.n)
        for _ in range(2):  # the second call reuses this thread's buffers
            got = sampler.sample(seed, range(first, first + rows))
            for g, a in zip(got, (amp, amp_d)):
                assert _same_bits(g, _evaluated(sampler, a[kept], draws))
        # fewer pairs after more: the rows it reads were padded too
        assert _same_bits(sampler.sample(seed, range(first, first + 2))[0],
                          got[0][:4])


def test_circulant_stream_layout(cauchy):
    # r = 2 columns: each pair's row of one fresh stream holds the first
    # normal of every mode of the band |j| <= J in FFT order, then the
    # second normal of every mode of the band |j| <= J2; each channel is
    # B_j[c, 0] zeta_1 + B_j[c, 1] zeta_2, with zeta_2 = 0 beyond J2, and
    # one inverse FFT
    seed, first, rows = 77, 3, 4
    spec = SimulationSpec(window_length=4.0, num_samples=2, master_seed=seed)
    sampler = _SpectralSampler(cauchy, spec)
    assert sampler.route == "circulant" and sampler.factor.shape[1] == 2
    assert sampler.window == "fft"
    kept = _kept(sampler)
    second = _drawn(sampler, 1)
    draws = _philox_stream(seed, first).standard_normal(
        rows * 2 * (kept.size + second.size)).view(complex).reshape(rows, -1)
    zeta = np.zeros((rows, 2, kept.size), dtype=complex)
    zeta[:, 0] = draws[:, :kept.size]
    zeta[:, 1, second] = draws[:, kept.size:]
    got = sampler.sample(seed, range(first, first + rows))
    for g, b in zip(got, sampler.factor):
        coeffs = np.zeros((rows, sampler.n), dtype=complex)
        coeffs[:, kept] = b[0] * zeta[:, 0]
        coeffs[:, kept] += b[1] * zeta[:, 1]
        field = np.fft.ifft(coeffs, axis=1, norm="forward")
        expect = np.empty_like(g)
        expect[0::2] = field[:, :sampler.m].real
        expect[1::2] = field[:, :sampler.m].imag
        assert _same_bits(g, expect)


def _forced(model, spec, window):
    """A sampler whose evaluator is forced by pricing the product in or
    out (short windows: its matrices fit the memory rule)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_PRODUCT_SPEED",
                   math.inf if window == "product" else 0.0)
        sampler = _SpectralSampler(model, spec)
    assert sampler.window == window
    return sampler


@pytest.mark.parametrize("name, length", [("bf", 2.0), ("sinc", 4.0),
                                          ("table", 2.0), ("cauchy", 1.0)])
def test_product_and_fft_fields_agree(request, name, length):
    # the same draws through both evaluators: fields within 1e-13 and the
    # same zero count in every replicate, on periodic weights and on
    # cauchy's two-column circulant factor
    model = request.getfixturevalue(name)
    spec = SimulationSpec(window_length=length, num_samples=2,
                          master_seed=17)
    fft = _forced(model, spec, "fft")
    product = _forced(model, spec, "product")
    assert fft.factor.shape[1] == (2 if name == "cauchy" else 1)
    pairs = range(3, 3 + product.pairs)
    a, b = fft.sample(17, pairs), product.sample(17, pairs)
    for x, y in zip(a, b):
        assert x.shape == y.shape == (2 * len(pairs), spec.grid_size)
        assert np.max(np.abs(x - y)) <= 1e-13
    za, zb = _zeros_from_batch(*a, spec), _zeros_from_batch(*b, spec)
    assert np.array_equal(np.bincount(za.rows, minlength=len(za)),
                          np.bincount(zb.rows, minlength=len(zb)))
    np.testing.assert_allclose(za.zeros, zb.zeros, rtol=0.0, atol=1e-11)


def test_product_sampler_prefix_and_threads(bf):
    # the k-point window (L = 4) is read off the product, taken on whole
    # blocks of `pairs` rows: any shorter or longer range from the same
    # first pair gives the same rows, and zero sets do not depend on the
    # thread count or on the replicate count
    spec = SimulationSpec(window_length=4.0, num_samples=2, master_seed=41)
    sampler = _SpectralSampler(bf, spec)
    assert sampler.window == "product" and sampler.pairs == 992
    whole = sampler.sample(41, range(7, 7 + sampler.pairs))
    for rows in (1, 5, sampler.pairs - 1, sampler.pairs + 3):
        head = sampler.sample(41, range(7, 7 + rows))
        for w, h in zip(whole, head):
            k = min(rows, sampler.pairs)
            assert _same_bits(w[:2 * k], h[:2 * k])
    # a full batch, a second and a short third
    stats = {}
    for n in (2 * 2 * 992 + 11, 2 * 2 * 992 + 10):
        spec = SimulationSpec(window_length=4.0, num_samples=n,
                              master_seed=41)
        one, three = (zero_samples(bf, spec, threads=t) for t in (1, 3))
        assert _same_bits(one.rows, three.rows)
        assert _same_bits(one.zeros, three.zeros)
        stats[n] = one
    short, long_ = stats[2 * 2 * 992 + 10], stats[2 * 2 * 992 + 11]
    cut = np.searchsorted(long_.rows, len(short))
    assert _same_bits(long_.zeros[:cut], short.zeros)


@pytest.mark.parametrize("name", ["bf", "cauchy"])
@pytest.mark.parametrize("length", [100.0, 1000.0])
def test_long_windows_keep_the_fft(request, name, length):
    # at R = 100 and 1000 the product would cost more than the FFT, and
    # its matrices would outgrow the FFT buffers
    sampler = _SpectralSampler(request.getfixturevalue(name),
                               SimulationSpec(window_length=length))
    assert sampler.window == "fft" and sampler._matrix is None
    assert 2 * sampler.normals * sampler.m > sampler.pairs * sampler.n


def test_short_windows_take_the_product(bf, table):
    # the k-point window and a table at L = 2 (41 of 1250 nodes)
    for model, length in ((bf, 4.0), (table, 2.0)):
        sampler = _SpectralSampler(model, SimulationSpec(length))
        assert sampler.window == "product"
        assert sampler._matrix.shape == (2, 2 * sampler.normals,
                                         2 * sampler.m)


@pytest.mark.parametrize("n", [2000, 2001])
def test_circulant_factor_reproduces_wrapped_covariance(bf, n):
    # bargmann-fock is below rounding long before n h / 2 = 50, so its
    # wrapped covariance clips nothing above rounding: the factors give
    # kappa, kappa' and -kappa'' back on every lag up to n / 2, with and
    # without a Nyquist mode
    h = 0.05
    k0, k1, k2 = bf.derivs(h * np.arange(n // 2 + 1), 2)
    torus = _circulant_torus(np.array([k0, k1, -k2]), n, 2 * n)
    assert torus.factor.shape[1] == 2
    lags = np.arange(n // 2 + 1)
    gap = _weights_covariance(torus, lags) - [k0, k1, -k2]
    assert np.max(np.abs(gap)) < 1e-14


def _periodic_size(model, spec):
    """Nodes of the periodization torus: the fast length of (L + reach) / h."""
    span = (spec.grid_size - 1) * spec.grid_step + _correlation_reach(model)
    return _next_fast_len(int(math.ceil(span / spec.grid_step)))


@pytest.mark.parametrize("name", SAMPLED_MODELS)
@pytest.mark.parametrize("length", [2.0, 50.0, 100.0])
def test_kept_band_covariances(request, name, length):
    # no sampling: the covariances of f, f' and (f, f') at lags 0, h, 1
    # and L, summed over the kept band, against the same sums over all
    # modes; exact differences by one fsum each.  Cauchy samples on
    # circulant weights at these windows, so its periodization weights
    # are checked on their own torus.
    model = request.getfixturevalue(name)
    spec = SimulationSpec(window_length=length)
    sampler = _SpectralSampler(model, spec)
    assert sampler.route == ("circulant" if name == "cauchy" else "periodic")
    torus = _periodic_torus(model, _periodic_size(model, spec),
                            spec.grid_step)
    if sampler.route == "periodic":
        assert torus.n == sampler.n and _same_bits(torus.factor,
                                                   sampler.factor)
    kept = _kept(torus)
    omega, amp, amp_d = _full_band(model, spec, torus.n)
    assert _same_bits(torus.factor[0, 0], amp[kept])
    assert _same_bits(torus.factor[1, 0], amp_d[kept])
    amp, amp_d = amp.real, amp_d.imag
    for lag in (0.0, spec.grid_step, 1.0, length):
        cos, sin = np.cos(omega * lag), np.sin(omega * lag)
        for terms in (amp * amp * cos, amp_d * amp_d * cos, amp * amp_d * sin):
            gap = math.fsum(np.r_[terms, -terms[kept]])
            assert abs(gap) <= 2.0 ** -53, (lag, gap)
    if name == "sinc":
        # sinc drops only the modes beyond sqrt3, where g is exactly 0
        assert kept.size < sampler.n / 10
        assert not np.any(np.delete(amp, kept))


# windows on circulant weights, with their torus nodes; the rest stay on
# the periodization torus
CIRCULANT_NODES = {("cauchy", 4.0): 2560, ("cauchy", 10.0): 1600,
                   ("cauchy", 50.0): 2000, ("cauchy", 100.0): 4000}
# covariance error of the periodization weights, rounded up: no window may
# state more (bargmann-fock's is rounding)
PERIODIC_ERROR = {"cauchy": (4.1e-5, 3.9e-5, 3.4e-5, 2.9e-5, 1.5e-5),
                  "sinc": (1.7e-3, 9.6e-4, 1.11e-2, 7.6e-3, 5.8e-3),
                  "bf": (2e-15,) * 5}
ERROR_LENGTHS = (4.0, 10.0, 50.0, 100.0, 1000.0)


def _weights_covariance(sampler, lags):
    """Rows cov(f, f), cov(f', f), cov(f', f') of the sampler's drawn
    weights at integer node lags, f' at the later node: direct sums of
    B_j B_j^H e^{2 pi i j k / n}, each column of B_j over its own band,
    with no FFT."""
    modes = _kept(sampler)
    b = sampler.factor
    phase = np.exp(2j * math.pi / sampler.n
                   * (np.outer(lags, modes) % sampler.n))
    cols = [_drawn(sampler, s) for s in range(b.shape[1])]
    return np.array([sum(phase[:, i] @ (b[c, s, i] * b[e, s, i].conj())
                         for s, i in enumerate(cols)).real
                     for c, e in ((0, 0), (1, 0), (1, 1))])


def _assert_stated_error(model, spec, sampler):
    m, h = spec.grid_size, spec.grid_step
    lags = np.unique(np.r_[0:8, m - 8:m,
                           np.random.default_rng(m).integers(0, m, 48)])
    k0, k1, k2 = model.derivs(h * lags, 2)
    gap = np.abs(_weights_covariance(sampler, lags) - [k0, k1, -k2])
    assert np.max(gap) <= sampler.covariance_error + 1e-12, (
        np.max(gap), sampler.covariance_error)


@pytest.mark.parametrize("name", ["bf", "sinc", "cauchy"])
@pytest.mark.parametrize("length", ERROR_LENGTHS)
def test_weights_meet_stated_covariance_error(request, name, length):
    # no sampling: the grid covariances the factors imply, against kappa,
    # kappa' and -kappa'', within the error the sampler states, which is
    # at most the periodization torus's
    model = request.getfixturevalue(name)
    spec = SimulationSpec(window_length=length)
    sampler = _SpectralSampler(model, spec)
    nodes = CIRCULANT_NODES.get((name, length))
    if nodes is None:
        assert sampler.route == "periodic"
        assert sampler.factor.shape[1] == 1
        assert sampler.n == _periodic_size(model, spec)
    else:
        assert (sampler.route, sampler.n) == ("circulant", nodes)
        assert sampler.factor.shape[1] == 2
        # fewer normals a pair than the periodization torus's
        periodic = _periodic_torus(model, _periodic_size(model, spec),
                                   spec.grid_step)
        assert sampler.normals < periodic.normals
    _assert_stated_error(model, spec, sampler)
    limit = PERIODIC_ERROR[name][ERROR_LENGTHS.index(length)]
    assert sampler.covariance_error <= limit


def test_table_weights_meet_stated_covariance_error(table):
    # no envelope, so no circulant candidate: periodic weights
    spec = SimulationSpec(window_length=2.0)
    sampler = _SpectralSampler(table, spec)
    assert sampler.route == "periodic" and sampler._error is None
    _assert_stated_error(table, spec, sampler)


def test_cauchy_circulant_count_moments(cauchy):
    # the zero count on [0, 100] from the circulant torus: its mean and
    # variance within 3 standard errors of R / pi and the pair-partition
    # prediction
    R, n = 100.0, 20_000
    spec = SimulationSpec(window_length=R, num_samples=n, master_seed=2718)
    assert _SpectralSampler(cauchy, spec).route == "circulant"
    phi = TestFunction.indicator(0.0, 1.0)
    counts = replicate_statistics(cauchy, spec, phi, R, threads=2)
    mean, var = counts.mean(), counts.var(ddof=1)
    assert abs(mean - R / math.pi) < 3.0 * math.sqrt(var / n)
    fourth = np.mean((counts - mean) ** 4)
    se_var = math.sqrt((fourth - var * var) / n)
    predicted = predicted_central_moment(cauchy, [phi, phi], R)
    assert abs(var - predicted) < 3.0 * se_var, (var, predicted, se_var)


def _zeros_per_row(f, fp, spec, cell_roots=_hermite_roots_batch):
    """Zero extraction one path at a time: the reference for the batch."""
    h = spec.grid_step
    sign_change = (f[:, :-1] * f[:, 1:]) < 0.0
    rows, cols = np.nonzero(sign_change)
    roots = np.empty(0)
    if rows.size:
        t = cell_roots(f[rows, cols], fp[rows, cols],
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
        out.append(zr[(zr >= 0.0) & (zr <= spec.window_length)])
    return out


def test_zeros_from_batch_matches_per_row_reference(cauchy, monkeypatch):
    # L = 1.02 at step 0.05: 22 nodes, the last one (1.05) past the window
    spec = SimulationSpec(window_length=1.02, grid_step=0.05, num_samples=1)
    m = spec.grid_size
    assert (m - 1) * spec.grid_step > spec.window_length
    gen = np.random.default_rng(3)
    f = gen.normal(size=(14, m))
    fp = gen.normal(size=(14, m))
    f[0] = np.abs(f[0]) + 0.1                  # no zeros
    f[1] = -np.abs(f[1]) - 0.1                 # no zeros
    f[2, [0, 7]] = [0.0, -0.0]                 # hits at node 0, and -0.0
    f[3, m - 1] = 0.0                          # hit past L only
    f[4, [m - 2, m - 1]] = [0.0, -0.0]         # hits at L - 0.02 and past L
    f[5] = np.abs(f[5]) + 0.1
    f[5, [3, 10, 11]] = [0.0, 0.0, -0.0]       # hits only, adjacent ones
    f[6, 3:8] = [1.0, 1.0, -1e-3, 1.0, 1.0]    # roots next to node 5
    f[7, 3:8] = [1.0, 1.0, -1e-3, 1.0, 1.0]    # ... in a row with a hit
    f[7, 12] = 0.0
    f[8] = 0.0                                 # every node a hit
    f[9, ::3] = -0.0                           # hits between brackets
    out = _zeros_from_batch(f, fp, spec)
    ref = _zeros_per_row(f, fp, spec)
    assert len(out) == len(ref) == f.shape[0]
    for r, (a, b) in enumerate(zip(out, ref)):
        assert _same_bits(a.zeros, b), r
    assert out[0].zeros.size == out[1].zeros.size == 0
    assert out[2].zeros[0] == 0.0
    assert out[4].zeros[-1] == (m - 2) * spec.grid_step
    # cell roots snapped to 0 or 1 tie across nodes, as when both lie
    # within rounding of node 5: two sign changes give two zeros in every
    # row, where the per-row `np.unique` merged them in rows with a hit
    snapped = lambda *cell: np.round(_hermite_roots_batch(*cell))
    monkeypatch.setattr(simulation, "_hermite_roots_batch", snapped)
    out = _zeros_from_batch(f, fp, spec)
    ref = _zeros_per_row(f, fp, spec, snapped)
    has_hit = np.any(f == 0.0, axis=1)
    for r, (a, b) in enumerate(zip(out, ref)):
        a = a.zeros
        assert _same_bits(np.unique(a) if has_hit[r] else a, b), r
    tie = 5 * spec.grid_step
    assert [np.count_nonzero(out[r].zeros == tie) for r in (6, 7)] == [2, 2]
    monkeypatch.undo()
    # whole sampled batches, where exact node hits do not occur
    gen_spec = SimulationSpec(window_length=7.3, num_samples=64,
                              master_seed=9)
    f, fp = _SpectralSampler(cauchy, gen_spec).sample(9, range(32))
    for a, b in zip(_zeros_from_batch(f, fp, gen_spec),
                    _zeros_per_row(f, fp, gen_spec)):
        assert _same_bits(a.zeros, b)


def _per_replicate_sums(samples, phi, R):
    """Reference: each replicate's sum by its own np.sum (pairwise order)."""
    return np.array([float(np.sum(phi(s.zeros / R))) if s.zeros.size else 0.0
                     for s in samples])


@pytest.mark.parametrize("threads", [1, 3])
def test_statistics_match_per_replicate_reference(bf, threads):
    spec = SimulationSpec(window_length=4.0, num_samples=3001, master_seed=21)
    samples = zero_samples(bf, spec, threads=threads)
    # k-point: per-replicate interval counts by binary search
    x, eps = np.array([0.7, 2.9]), 0.1
    products = np.array([
        float(np.prod(np.searchsorted(s.zeros, x + eps, side="right")
                      - np.searchsorted(s.zeros, x - eps, side="left")))
        for s in samples])
    scale = (2.0 * eps) ** -2
    expect = (float(products.mean()) * scale,
              float(products.std(ddof=1) / math.sqrt(products.size)) * scale)
    assert empirical_k_point(bf, spec, x, eps, threads=threads) == expect
    # linear statistics: indicator sums are exact, so bit for bit
    ind = TestFunction.indicator(0.0, 1.0)
    stats = replicate_statistics(bf, spec, ind, 4.0, threads=threads)
    assert _same_bits(stats, _per_replicate_sums(samples, ind, 4.0))
    assert _same_bits(stats, linear_statistic(samples, ind, 4.0))
    # a smooth phi over ~10 zeros per replicate: np.sum adds pairwise,
    # np.bincount in order, so the sums agree to rounding only (a third
    # of them differ, by up to 3.8e-16 relative)
    spec = SimulationSpec(window_length=30.0, num_samples=300, master_seed=22)
    gauss = TestFunction.gaussian(0.5, 0.05)
    stats = replicate_statistics(bf, spec, gauss, 30.0, threads=threads)
    samples = zero_samples(bf, spec, threads=threads)
    ref = _per_replicate_sums(samples, gauss, 30.0)
    np.testing.assert_allclose(stats, ref, rtol=1e-15, atol=0.0)
    assert _same_bits(stats, linear_statistic(samples, gauss, 30.0))
    with pytest.raises(ConfigError, match="R must be positive"):
        replicate_statistics(bf, spec, ind, 0.0)


def test_mean_zero_count(presets):
    for model in presets.values():
        for r in (20.0, 50.0):
            n = 2000
            spec = SimulationSpec(window_length=r, grid_step=0.05,
                                  num_samples=n, master_seed=7)
            stats = replicate_statistics(model, spec,
                                         TestFunction.indicator(0, 1), r)
            mean = stats.mean()
            se = stats.std(ddof=1) / math.sqrt(n)
            assert abs(mean * math.pi / r - 1.0) < 3 * se * math.pi / r, \
                (model.kind, r)


def test_linear_statistic_examples(bf):
    spec = SimulationSpec(window_length=30.0, grid_step=0.05, num_samples=1,
                          master_seed=4)
    samples = zero_samples(bf, spec)
    full = TestFunction.indicator(0.0, 1.0)
    left = TestFunction.indicator(0.0, 0.5)
    right = TestFunction.indicator(0.5, 1.0)
    (total,) = linear_statistic(samples, full, 30.0)
    assert total == samples[0].zeros.size  # window length == R
    assert total == _per_replicate_sums(samples, full, 30.0)[0]
    (halves,) = (linear_statistic(samples, left, 30.0)
                 + linear_statistic(samples, right, 30.0))
    # splitting the indicator is additive up to the shared boundary point
    assert abs(halves - total) <= 1.0
    zero_phi = TestFunction.table([-1.0, 1.0], [0.0, 0.0])
    assert linear_statistic(samples, zero_phi, 30.0).tolist() == [0.0]
    # no replicates, and replicates without zeros, sum to nothing
    assert linear_statistic([], full, 30.0).size == 0
    empty = [simulation.ZeroSample(zeros=np.empty(0))] * 2
    assert linear_statistic(empty, full, 30.0).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_scales_refused_before_sampling(bf, monkeypatch, bad):
    # R, epsilon and sigma must be finite and positive; NaN used to pass
    # every `<= 0` check and come back as zeros or NaN
    monkeypatch.setattr(simulation, "zero_samples",
                        lambda *a, **k: pytest.fail("sampled"))
    spec = SimulationSpec(window_length=10.0, num_samples=4, master_seed=1)
    phi = TestFunction.indicator(0.0, 1.0)
    with pytest.raises(ConfigError, match="R must be positive and finite"):
        replicate_statistics(bf, spec, phi, bad)
    with pytest.raises(ConfigError, match="R must be positive and finite"):
        empirical_moments(bf, spec, phi, bad, [2])
    with pytest.raises(ConfigError, match="R must be positive and finite"):
        clt_diagnostic(bf, spec, phi, bad, 0.5)
    with pytest.raises(ConfigError, match="sigma must be positive and finite"):
        clt_diagnostic(bf, spec, phi, 10.0, bad)
    with pytest.raises(ConfigError,
                       match="epsilon must be positive and finite"):
        empirical_k_point(bf, spec, [2.0, 5.0], bad)
    with pytest.raises(ConfigError, match="R must be positive and finite"):
        linear_statistic([], phi, bad)


@pytest.mark.parametrize("points", [[2.0, math.nan], [math.inf, 2.0],
                                    [-math.inf], []])
def test_k_point_refuses_non_finite_points(bf, monkeypatch, points):
    monkeypatch.setattr(simulation, "zero_samples",
                        lambda *a, **k: pytest.fail("sampled"))
    spec = SimulationSpec(window_length=10.0, num_samples=4, master_seed=1)
    with pytest.raises(ConfigError, match="finite numbers"):
        empirical_k_point(bf, spec, points, 0.1)


def test_k_point_refuses_collapsed_interval(bf, monkeypatch):
    # epsilon below half an ulp of the point: [x - eps, x + eps] is one value
    monkeypatch.setattr(simulation, "zero_samples",
                        lambda *a, **k: pytest.fail("sampled"))
    spec = SimulationSpec(4e5, num_samples=2)
    with pytest.raises(ConfigError, match=r"epsilon 1e-12 .* point 300000\.0: "
                       r"its counting interval \[300000\.0, 300000\.0\]"):
        empirical_k_point(bf, spec, [3e5], 1e-12)


def test_window_guard(bf):
    spec = SimulationSpec(window_length=5.0, grid_step=0.05, num_samples=2,
                          master_seed=3)
    with pytest.raises(WindowTooSmall):
        replicate_statistics(bf, spec, TestFunction.indicator(0, 2), 5.0)


@pytest.mark.parametrize("phi, low", [(TestFunction.indicator(-1.0, 1.0), "-1"),
                                      (TestFunction.gaussian(0.0, 0.1), "-0.9")])
def test_support_below_window_refused_before_sampling(bf, monkeypatch, phi,
                                                      low):
    monkeypatch.setattr(simulation, "zero_samples",
                        lambda *a, **k: pytest.fail("sampled"))
    spec = SimulationSpec(window_length=20.0 * phi.support_radius(),
                          num_samples=2)
    with pytest.raises(WindowTooSmall, match=rf"support \[{low}, "):
        replicate_statistics(bf, spec, phi, 20.0)


def test_determinism_across_threads_and_batches(bf):
    phi = TestFunction.indicator(0.0, 1.0)
    # an odd count ends on a half pair: its last replicate is a real part
    stats = {}
    for n in (64, 63):
        spec = SimulationSpec(window_length=20.0, grid_step=0.05,
                              num_samples=n, master_seed=123)
        a = replicate_statistics(bf, spec, phi, 20.0, threads=1)
        b = replicate_statistics(bf, spec, phi, 20.0, threads=4)
        assert a.size == n
        assert np.array_equal(a, b)
        za = zero_samples(bf, spec)[5].zeros
        zb = zero_samples(bf, spec, threads=3)[5].zeros
        np.testing.assert_array_equal(za, zb)
        stats[n] = a
    assert np.array_equal(stats[64][:63], stats[63])
    # a short batch draws a prefix of a full batch's stream
    sampler = _SpectralSampler(bf, spec)
    whole = sampler.sample(123, range(0, 4))
    head = sampler.sample(123, range(0, 2))
    for w, t in zip(whole, head):
        assert np.array_equal(w[:4], t)


def test_one_stream_per_batch(bf, monkeypatch):
    # the k-point job's shape: an FFT of 264 nodes, so 2 * 992 replicates
    # a batch and 16 batches for 30 000, one stream each
    keys = []

    def spy(seed, index):
        keys.append(index)
        return _chunk_rng(seed, index)
    monkeypatch.setattr(simulation, "_chunk_rng", spy)
    spec = SimulationSpec(window_length=4.0, num_samples=30_000, master_seed=7)
    assert _SpectralSampler(bf, spec).n == 264
    zero_samples(bf, spec, threads=2)
    assert sorted(keys) == list(range(0, 15_000, 992))


def test_pool_capped_at_batches_and_cpus(bf, monkeypatch):
    # one worker per batch at most, and no more than the CPUs: each holds
    # its own FFT buffers, and the bits do not depend on the pool
    sizes, pool = [], simulation.ThreadPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)
    monkeypatch.setattr(simulation, "_BATCH_NODES", 1)  # a batch is a pair
    spec = SimulationSpec(window_length=2.0, num_samples=6, master_seed=4)
    expect = zero_samples(bf, spec)
    monkeypatch.setattr(simulation, "ThreadPoolExecutor", spy)
    got = zero_samples(bf, spec, threads=8)
    assert sizes == [min(3, os.cpu_count() or 1)]
    assert np.array_equal(got.rows, expect.rows)
    assert np.array_equal(got.zeros, expect.zeros)


@pytest.mark.parametrize("threads", [0, -1])
def test_zero_samples_refuses_no_threads(bf, threads):
    spec = SimulationSpec(window_length=5.0, num_samples=4)
    with pytest.raises(ConfigError, match="thread"):
        zero_samples(bf, spec, threads=threads)


def test_single_replicate_states_no_error(bf):
    # one replicate has no spread: no bootstrap interval, no stderr
    spec = SimulationSpec(window_length=10.0, num_samples=1, master_seed=5)
    phi = TestFunction.indicator(0.0, 1.0)
    with pytest.raises(ConfigError, match="two replicates"):
        empirical_moments(bf, spec, phi, 10.0, [2])
    with pytest.raises(ConfigError, match="two replicates"):
        empirical_k_point(bf, spec, [2.0, 5.0], 0.1)
    assert len(zero_samples(bf, spec)) == 1


def test_sinc_long_window_mean_count(sinc):
    # 2001 grid points on a period of 500: the sinc reach is capped at 400
    r, n = 100.0, 400
    spec = SimulationSpec(window_length=r, grid_step=0.05, num_samples=n,
                          master_seed=11)
    counts = np.array([s.zeros.size for s in zero_samples(sinc, spec)],
                      dtype=float)
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() * math.pi / r - 1.0) < 4.0 * se * math.pi / r


def test_empirical_moments_centered(bf):
    # a 95 % interval misses on 5 % of streams by design, so the moments
    # are calibrated over 20 seeds: z = (estimate - exact) / se, with se
    # the bootstrap interval's width / 3.92, must have |mean| within 4
    # standard errors of 0 and mean square at most 2
    phi = TestFunction.indicator(0.0, 1.0)
    pred = predicted_covariance(bf, phi, phi, 40.0)
    z = []
    for seed in range(6, 26):
        spec = SimulationSpec(window_length=40.0, grid_step=0.05,
                              num_samples=1500, master_seed=seed)
        m1, m2 = empirical_moments(bf, spec, phi, 40.0, [1, 2])
        if seed == 6:
            assert m1.ci_low <= 0.0 <= m1.ci_high  # exact centering
        z.append([(m.estimate - exact) / ((m.ci_high - m.ci_low) / 3.92)
                  for m, exact in ((m1, 0.0), (m2, pred))])
    z = np.array(z)
    assert np.all(np.abs(z.mean(axis=0)) <= 4.0 / math.sqrt(len(z))), z
    assert np.all((z * z).mean(axis=0) <= 2.0), z


@pytest.mark.parametrize("rows", [None, 100, 125, 7])
def test_bootstrap_blocks_equal_one_draw(bf, monkeypatch, rows):
    # blocks of resample rows continue one stream: bit for bit the CIs of
    # a single (1000, n) index draw, also with a short last block
    n, R = 2001, 5.0
    if rows is not None:
        monkeypatch.setattr(simulation, "_BOOTSTRAP_BLOCK", rows * n)
    spec = SimulationSpec(window_length=R, num_samples=n, master_seed=31)
    phi = TestFunction.indicator(0.0, 1.0)
    got = empirical_moments(bf, spec, phi, R, [1, 2, 4])
    centered = (replicate_statistics(bf, spec, phi, R)
                - expected_linear_statistic(phi, R))
    idx = _chunk_rng(31, 0xB00757).integers(0, n, size=(1000, n))
    for est, p in zip(got, (1, 2, 4)):
        lo, hi = np.quantile((centered ** p)[idx].mean(axis=1), [0.025, 0.975])
        assert (est.ci_low, est.ci_high) == (float(lo), float(hi))


def test_bootstrap_memory_is_bounded():
    # at n = 50 000 one (1000, n) index draw would take 400 MB, and each
    # order's gather as much again; a block and its gather take 32 MB
    code = """
import resource
from gausszeros import get_model
from gausszeros.simulation import (SimulationSpec, empirical_moments,
                                   replicate_statistics)
from gausszeros.variance import TestFunction
bf, phi = get_model("bargmann-fock"), TestFunction.indicator(0.0, 1.0)
spec = SimulationSpec(window_length=1.0, num_samples=50_000, master_seed=3)
replicate_statistics(bf, spec, phi, 1.0)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
empirical_moments(bf, spec, phi, 1.0, [2, 4])
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak) / 1024)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(simulation.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 64.0  # MB above the sampling's own peak


def test_sampling_memory_is_bounded(cauchy):
    # each pool thread reuses one set of batch buffers; the sampler that
    # allocated fresh draws, products and transforms per batch peaked at
    # 28.1-28.9 MiB here (numpy 2.4)
    spec = SimulationSpec(window_length=100.0, num_samples=2000,
                          master_seed=5)
    tracemalloc.start()
    try:
        zero_samples(cauchy, spec, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 27 * 2 ** 20


def test_empirical_k_point(bf):
    spec = SimulationSpec(window_length=3.0, grid_step=0.05,
                          num_samples=30_000, master_seed=8)
    est, se = empirical_k_point(bf, spec, [0.5, 2.5], 0.05)
    exact = rho_k(bf, [0.0, 2.0]).rho
    assert abs(est - exact) <= 3.0 * se
    with pytest.raises(IntervalsOverlap):
        empirical_k_point(bf, spec, [0.5, 0.55], 0.05)
    with pytest.raises(IntervalsOverlap):
        empirical_k_point(bf, spec, [0.0, 2.0], 0.05)


def test_repulsion_below_mean_density(bf):
    # near the diagonal the pair intensity dips below 1/pi^2
    spec = SimulationSpec(window_length=2.0, grid_step=0.05,
                          num_samples=60_000, master_seed=10)
    est, se = empirical_k_point(bf, spec, [0.5, 0.8], 0.05)
    assert est + 3 * se < 1.0 / math.pi ** 2
    assert two_point_F(bf, 0.3) < 0


def test_lln_trend(bf):
    # replicate-averaged |count/R - 1/pi| decreases along a doubling ladder
    devs = []
    for r in (25.0, 50.0, 100.0, 200.0):
        spec = SimulationSpec(window_length=r, grid_step=0.05,
                              num_samples=500, master_seed=2024)
        stats = replicate_statistics(bf, spec, TestFunction.indicator(0, 1), r)
        devs.append(np.mean(np.abs(stats / r - 1.0 / math.pi)))
    assert devs[0] > devs[1] > devs[2] > devs[3]


@pytest.mark.parametrize("n", [1, 2, 17, 500, 4000])
def test_ks_distance_matches_scipy(n):
    from scipy.stats import kstest

    rng = np.random.default_rng(n)
    for scale in (0.3, 1.0, 2.5):
        t = rng.normal(0.05, 1.1 * scale, n)
        assert _ks_distance(t, scale) == pytest.approx(
            kstest(t, "norm", args=(0.0, scale)).statistic, abs=1e-12)
