import math

import numpy as np
import pytest

from gausszeros.errors import ConfigError, IntervalsOverlap, WindowTooSmall
from gausszeros.densities import rho_k
from gausszeros.simulation import (SimulationSpec, _SpectralSampler,
                                   empirical_k_point, empirical_moments,
                                   extract_zeros, linear_statistic,
                                   replicate_statistics, zero_samples)
from gausszeros.variance import (TestFunction, predicted_covariance,
                                 two_point_F)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SimulationSpec(window_length=10.0, grid_step=0.2)
    with pytest.raises(ConfigError):
        SimulationSpec(window_length=-1.0)


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


def test_extract_zeros_sine_path():
    spec = SimulationSpec(window_length=10.0, grid_step=0.05, num_samples=1)
    grid = np.arange(spec.grid_size) * spec.grid_step
    zs = extract_zeros(np.sin(grid), np.cos(grid), spec)
    expect = np.array([0.0, math.pi, 2 * math.pi, 3 * math.pi])
    np.testing.assert_allclose(zs.zeros, expect, atol=1e-8)


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
    z1 = extract_zeros(f(gh), fp(gh), spec_h).zeros
    z2 = extract_zeros(f(gh2), fp(gh2), spec_h2).zeros
    assert z1.size == z2.size
    assert np.max(np.abs(z1 - z2)) < 10 * h * h


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
    sample = zero_samples(bf, spec)[0]
    full = TestFunction.indicator(0.0, 1.0)
    left = TestFunction.indicator(0.0, 0.5)
    right = TestFunction.indicator(0.5, 1.0)
    total = linear_statistic(sample, full, 30.0)
    assert total == sample.zeros.size  # window length == R
    halves = (linear_statistic(sample, left, 30.0)
              + linear_statistic(sample, right, 30.0))
    # splitting the indicator is additive up to the shared boundary point
    assert abs(halves - total) <= 1.0
    zero_phi = TestFunction.table([-1.0, 1.0], [0.0, 0.0])
    assert linear_statistic(sample, zero_phi, 30.0) == 0.0


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
