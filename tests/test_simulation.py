import math
import time

import numpy as np
import pytest

from gausszeros.conditioning import _chunk_rng
from gausszeros.errors import (ConfigError, IntervalsOverlap, SizeCap,
                               WindowTooSmall)
from gausszeros.densities import rho_k
from gausszeros import simulation
from gausszeros.simulation import (SimulationSpec, _hermite_roots_batch,
                                   _ks_distance, _next_fast_len,
                                   _SpectralSampler, _zeros_from_batch,
                                   clt_diagnostic, empirical_k_point,
                                   empirical_moments, linear_statistic,
                                   replicate_statistics, zero_samples)
from gausszeros.variance import (TestFunction, predicted_covariance,
                                 two_point_F)


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
    zs = _zeros_from_batch(np.sin(grid)[None], np.cos(grid)[None], spec)[0]
    expect = np.array([0.0, math.pi, 2 * math.pi, 3 * math.pi])
    np.testing.assert_allclose(zs, expect, atol=1e-8)


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
    z1 = _zeros_from_batch(f(gh)[None], fp(gh)[None], spec_h)[0]
    z2 = _zeros_from_batch(f(gh2)[None], fp(gh2)[None], spec_h2)[0]
    assert z1.size == z2.size
    assert np.max(np.abs(z1 - z2)) < 10 * h * h


def _philox_stream(seed, index):
    # the substream contract: a fresh Philox keyed by (seed mod 2^64, index)
    return np.random.Generator(np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 123, 2 ** 63 + 5, 2 ** 64 - 1])
def test_rekeyed_stream_matches_fresh_substream(bf, seed):
    n = 101
    rng = _chunk_rng(seed, 7)
    # odd-length and 32-bit draws leave buffered words that the rekey drops
    rng.standard_normal(3)
    rng.random(dtype=np.float32)
    for pair in (9, 2, 0, 2, 40_000):  # out of order, one repeated
        expect = _philox_stream(seed, pair).standard_normal(2 * n)
        assert _same_bits(_chunk_rng(seed, pair).standard_normal(2 * n),
                          expect)
        assert _same_bits(_chunk_rng(seed, pair, rng).standard_normal(2 * n),
                          expect)
        rng.standard_normal(pair % 5 + 1)
        rng.integers(0, 7, dtype=np.uint32)
    # the sampler's batch of out-of-order pairs, against fresh streams
    spec = SimulationSpec(window_length=2.0, num_samples=2, master_seed=seed)
    sampler = _SpectralSampler(bf, spec)
    pairs = [5, 1, 3, 1]
    zeta = np.stack([_philox_stream(seed, p).standard_normal(2 * sampler.n)
                     .view(complex) for p in pairs])
    got = sampler.sample(seed, pairs)
    expect = (sampler._window(sampler.amp * zeta),
              sampler._window(sampler.amp_d * zeta))
    for g, e in zip(got, expect):
        assert _same_bits(g, e)


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
        assert _same_bits(a, b), r
    assert out[0].size == out[1].size == 0
    assert out[2][0] == 0.0
    assert out[4][-1] == (m - 2) * spec.grid_step
    # cell roots snapped to 0 or 1 tie across nodes, as when both lie
    # within rounding of node 5: two sign changes give two zeros in every
    # row, where the per-row `np.unique` merged them in rows with a hit
    snapped = lambda *cell: np.round(_hermite_roots_batch(*cell))
    monkeypatch.setattr(simulation, "_hermite_roots_batch", snapped)
    out = _zeros_from_batch(f, fp, spec)
    ref = _zeros_per_row(f, fp, spec, snapped)
    has_hit = np.any(f == 0.0, axis=1)
    for r, (a, b) in enumerate(zip(out, ref)):
        assert _same_bits(np.unique(a) if has_hit[r] else a, b), r
    tie = 5 * spec.grid_step
    assert [np.count_nonzero(out[r] == tie) for r in (6, 7)] == [2, 2]
    monkeypatch.undo()
    # whole sampled batches, where exact node hits do not occur
    gen_spec = SimulationSpec(window_length=7.3, num_samples=64,
                              master_seed=9)
    f, fp = _SpectralSampler(cauchy, gen_spec).sample(9, range(32))
    for a, b in zip(_zeros_from_batch(f, fp, gen_spec),
                    _zeros_per_row(f, fp, gen_spec)):
        assert _same_bits(a, b)


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


def test_window_guard(bf):
    spec = SimulationSpec(window_length=5.0, grid_step=0.05, num_samples=2,
                          master_seed=3)
    with pytest.raises(WindowTooSmall):
        replicate_statistics(bf, spec, TestFunction.indicator(0, 2), 5.0)


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
    # a pair's paths do not depend on the other pairs of its batch
    sampler = _SpectralSampler(bf, spec)
    whole = sampler.sample(123, range(0, 4))
    tail = sampler.sample(123, range(2, 4))
    for w, t in zip(whole, tail):
        assert np.array_equal(w[4:], t)


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
    spec = SimulationSpec(window_length=40.0, grid_step=0.05,
                          num_samples=1500, master_seed=6)
    phi = TestFunction.indicator(0.0, 1.0)
    ests = empirical_moments(bf, spec, phi, 40.0, [1, 2])
    m1, m2 = ests
    assert m1.ci_low <= 0.0 <= m1.ci_high  # exact centering
    pred = predicted_covariance(bf, phi, phi, 40.0)
    assert m2.ci_low <= pred <= m2.ci_high


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
