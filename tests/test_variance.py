import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausszeros import variance
from gausszeros.densities import rho_k
from gausszeros.errors import ConfigError, QuadratureNotConverged
from gausszeros.models import QuadratureSpec
from gausszeros.simulation import SimulationSpec, replicate_statistics
from gausszeros.variance import (TestFunction, _envelope_tail,
                                 _integrate_panels, expected_linear_statistic,
                                 predicted_covariance, sigma_lower_bound,
                                 sigma_squared, two_point_F)

PI2 = math.pi ** 2


def test_f_limits(bf):
    assert abs(two_point_F(bf, 1e-3) + 1.0 / PI2) < 1e-4
    assert abs(two_point_F(bf, 10.0)) < 1e-10
    assert two_point_F(bf, 0.0) == -1.0 / PI2


def test_f_even(bf):
    for z in (0.3, 1.7, 4.0):
        assert abs(two_point_F(bf, z) - two_point_F(bf, -z)) < 1e-12


def test_f_matches_two_point_intensity(bf):
    for z in np.geomspace(0.05, 10.0, 25):
        lhs = two_point_F(bf, z)
        rhs = rho_k(bf, [0.0, z]).rho - 1.0 / PI2
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-3), z


def test_correlation_coefficient_in_range(presets):
    # the arcsin argument is a correlation, so |a| <= 1 up to roundoff;
    # numerator and denominator are both O(z^4) near 0, so the slack there
    # is the conditioning floor, not a property failure
    for model in presets.values():
        for z in np.geomspace(2e-4, 12.0, 200):
            k0, k1, k2 = model.derivs(z, 2)
            om2 = float(model.one_minus_kappa(z) * (1.0 + k0))
            denom = om2 - k1 * k1
            if denom <= 0:
                continue
            a = (k0 * k1 * k1 + k2 * om2) / denom
            slack = 1e-10 if z >= 1e-2 else 1e-4
            assert abs(a) <= 1.0 + slack, (model.kind, z)


def test_sigma_squared_bargmann_fock(bf):
    val = sigma_squared(bf, QuadratureSpec(truncation_radius=40.0,
                                           abs_tolerance=1e-8))
    assert 0.17 <= val <= 0.19


def test_sigma_lower_bound_oracle(bf):
    # (kappa + kappa'')^2 = z^4 exp(-z^2); int_0^inf = Gamma(5/2)/2 = 3 sqrt(pi)/8
    lb = sigma_lower_bound(bf)
    oracle = 3.0 / (8.0 * math.pi ** 1.5)
    assert lb == pytest.approx(oracle, rel=1e-6)
    # the two closed-form candidates, tracked but not asserted as truth:
    print(f"\nlower-bound quadrature {lb:.9f}; Gamma-integral oracle "
          f"{oracle:.9f}; literature candidate (2 pi^3)^-1/2 "
          f"{(2 * math.pi ** 3) ** -0.5:.9f}")


def test_positivity_chain(presets):
    for model in presets.values():
        s2 = sigma_squared(model)
        lb = sigma_lower_bound(model)
        assert lb > 0.0, model.kind
        assert s2 >= lb, model.kind


def test_sigma_refuses_uncertified_tolerance(sinc):
    with pytest.raises(QuadratureNotConverged):
        sigma_squared(sinc, QuadratureSpec(truncation_radius=100.0,
                                           abs_tolerance=1e-10))


def test_f_tail_bound(presets):
    # |F(z)| = O(kappa^2 + kappa'^2 + kappa''^2): calibrate the constant on
    # [2, 6] and verify the O-bound holds beyond with a fixed margin (the
    # ratio drifts towards its asymptotic constant, so the margin absorbs
    # mid-range sign cancellations in the calibration window)
    for model in presets.values():
        def envelope(z):
            d = model.derivs(z, 2)
            return float(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)

        cal = max(abs(two_point_F(model, z)) / envelope(z)
                  for z in np.linspace(2.0, 6.0, 81))
        for z in np.linspace(6.0, 12.0, 25):
            assert abs(two_point_F(model, z)) <= 3.0 * cal * envelope(z)


@pytest.mark.parametrize("T", [20.0, 40.0, 201.0, 500.0, 4000.0])
def test_envelope_tail_is_a_tight_upper_bound(presets, T):
    # a fine quadrature of the same integral plus its edge term is the
    # reference; the upper sum is at most 5 % above it where the envelope
    # decays like a power (BF: the bound is below 1e-160 from T = 20 on)
    for name, model in presets.items():
        def env_sq(t):
            return sum(w * model.tail_envelope(l, t) ** 2
                       for l, w in enumerate((1.0, 2.0, 1.3)))

        body, _ = _integrate_panels(env_sq, T, 50.0 * T, 1e-300, T, 200)
        ref = body + env_sq(50.0 * T) * 50.0 * T
        bound = _envelope_tail(env_sq, T)
        assert bound >= ref, (name, T)
        if name == "bargmann-fock":
            assert bound <= 1e-160, T
        else:
            assert bound <= 1.05 * ref, (name, T)


def test_predicted_covariance_asymptotics(bf):
    phi = TestFunction.indicator(0.0, 1.0)
    s2 = sigma_squared(bf)
    r = 400.0
    m2 = predicted_covariance(bf, phi, phi, r)
    assert m2 / r == pytest.approx(s2, abs=5e-3)


def test_predicted_covariance_disjoint_supports(bf):
    phi1 = TestFunction.indicator(0.0, 1.0)
    phi2 = TestFunction.indicator(3.0, 4.0)
    r = 50.0
    m2 = predicted_covariance(bf, phi1, phi2, r)
    assert abs(m2) < 1e-6  # no overlap and F decays within the R-scaled gap


def test_predicted_covariance_vs_monte_carlo(bf):
    phi = TestFunction.indicator(0.0, 1.0)
    m2 = predicted_covariance(bf, phi, phi, 1.0)
    spec = SimulationSpec(window_length=1.0, grid_step=0.025,
                          num_samples=100_000, master_seed=314)
    counts = replicate_statistics(bf, spec, phi, 1.0)
    centered = counts - expected_linear_statistic(phi, 1.0)
    var = float(np.mean(centered ** 2))
    stderr = float(np.std(centered ** 2, ddof=1) / math.sqrt(counts.size))
    assert abs(var - m2) <= 3.0 * stderr


@pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
def test_variance_layer_refuses_bad_R(bf, bad):
    phi = TestFunction.indicator(0.0, 1.0)
    with pytest.raises(ConfigError, match="R must be positive and finite"):
        predicted_covariance(bf, phi, phi, bad)
    with pytest.raises(ConfigError, match="R must be positive and finite"):
        expected_linear_statistic(phi, bad)


def test_expected_linear_statistic():
    phi = TestFunction.indicator(0.0, 1.0)
    assert expected_linear_statistic(phi, 50.0) == pytest.approx(50.0 / math.pi)
    odd = TestFunction.table([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    assert expected_linear_statistic(odd, 10.0) == pytest.approx(0.0, abs=1e-12)
    # exp(-x^2) = gaussian(center 0, width 1/sqrt(2)): integral sqrt(pi)
    gauss = TestFunction.gaussian(0.0, 1.0 / math.sqrt(2.0))
    assert expected_linear_statistic(gauss, 1.0) == pytest.approx(
        math.sqrt(math.pi) / math.pi)


def test_cross_correlations():
    ind = TestFunction.indicator(0.0, 1.0)
    assert ind.cross_correlation(ind, 0.0) == 1.0
    assert ind.cross_correlation(ind, 0.5) == 0.5
    assert ind.cross_correlation(ind, 1.5) == 0.0
    g = TestFunction.gaussian(0.0, 1.0)
    # int exp(-x^2/2) exp(-(x+u)^2/2) dx = sqrt(pi) exp(-u^2/4)
    for u in (0.0, 1.0, 2.5):
        assert g.cross_correlation(g, u) == pytest.approx(
            math.sqrt(math.pi) * math.exp(-u * u / 4.0), rel=1e-12)
    # mixed closed form vs numeric table fallback (table is a piecewise
    # linear stand-in for the gaussian, so only ~1e-3 agreement is expected)
    tab = TestFunction.table(np.linspace(-3, 3, 601),
                             np.exp(-0.5 * np.linspace(-3, 3, 601) ** 2))
    assert ind.cross_correlation(g, 0.3) == pytest.approx(
        ind.cross_correlation(tab, 0.3), abs=2e-3)


def test_f_array_matches_scalar(presets, table):
    z = np.concatenate([[0.0, 5e-5, -2e-4], np.geomspace(1e-3, 30.0, 60),
                        -np.linspace(0.5, 7.0, 14)])
    for model in list(presets.values()) + [table]:
        scalar = [two_point_F(model, v) for v in z]
        assert all(type(v) is float for v in scalar), model.kind
        arr = two_point_F(model, z)
        assert arr.shape == z.shape
        np.testing.assert_allclose(arr, scalar, rtol=0.0, atol=1e-15,
                                   err_msg=model.kind)
        assert two_point_F(model, z[:76].reshape(4, 19)).shape == (4, 19)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coef=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=32),
       a=st.floats(-2.0, 2.0), length=st.floats(0.01, 3.0))
def test_panel_rule_exact_on_polynomials(coef, a, length):
    # the 21-point Kronrod rule integrates degree <= 31 exactly
    poly = np.polynomial.Polynomial(coef)
    b = a + length
    val, _ = _integrate_panels(poly, a, b, 1e-10, 100.0, 1)
    exact = poly.integ()(b) - poly.integ()(a)
    scale = sum(abs(c) for c in coef) * max(1.0, abs(a), abs(b)) ** (len(coef) - 1)
    assert abs(val - exact) <= 1e-12 * max(1.0, scale)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(omega=st.one_of(st.just(0.0), st.floats(1e-3, 30.0)),
       a=st.floats(-10.0, 10.0),
       length=st.floats(0.01, 20.0), tol_exp=st.floats(-12.0, -2.0),
       chunk_len=st.floats(0.5, 25.0), max_panels=st.integers(1, 60))
def test_panel_error_bounds_cosine(omega, a, length, tol_exp, chunk_len,
                                   max_panels):
    b = a + length
    val, err = _integrate_panels(lambda x: np.cos(omega * x), a, b,
                                 10.0 ** tol_exp, chunk_len, max_panels)
    if omega == 0.0:
        exact = b - a
    else:
        exact = 2.0 * math.cos(0.5 * omega * (a + b)) * math.sin(
            0.5 * omega * (b - a)) / omega
    # the integrand itself carries rounding of order eps * omega * |x|
    rounding = 64.0 * np.finfo(float).eps * (1.0 + omega * max(abs(a), abs(b))) * (b - a)
    assert abs(val - exact) <= err + rounding


def test_sinc_sigma_squared_derivs_calls(sinc, monkeypatch):
    # each panel round is one array F call, hence one derivs call
    calls = []
    derivs = sinc.derivs
    monkeypatch.setattr(sinc, "derivs",
                        lambda x, k: calls.append(np.size(x)) or derivs(x, k))
    sigma_squared(sinc)
    assert 0 < len(calls) <= 10
    assert sum(calls) / len(calls) > 1000


def test_panel_cap_refuses(bf, monkeypatch):
    monkeypatch.setattr(variance, "_MAX_PANELS", 1)
    with pytest.raises(QuadratureNotConverged):
        sigma_squared(bf, QuadratureSpec(truncation_radius=40.0,
                                         abs_tolerance=1e-8))


def _no_integration(monkeypatch, model):
    def fail(*args, **kwargs):
        raise AssertionError("integrand evaluated before the tail check")
    monkeypatch.setattr(variance, "two_point_F", fail)
    monkeypatch.setattr(model, "derivs", fail)


def test_table_model_refused_before_integrating(table, monkeypatch):
    _no_integration(monkeypatch, table)
    with pytest.raises(QuadratureNotConverged):
        sigma_squared(table)
    with pytest.raises(QuadratureNotConverged):
        sigma_lower_bound(table)


def test_table_covariance_tail_refused_before_integrating(table, monkeypatch):
    # span 200 reaches past the table's truncation 60, and a table model
    # certifies no F tail beyond it
    _no_integration(monkeypatch, table)
    phi = TestFunction.indicator(0.0, 1.0)
    with pytest.raises(QuadratureNotConverged):
        predicted_covariance(table, phi, phi, 100.0)


def test_unreachable_tolerance_refused_before_integrating(sinc, monkeypatch):
    _no_integration(monkeypatch, sinc)
    spec = QuadratureSpec(truncation_radius=4000.0, abs_tolerance=1e-12)
    with pytest.raises(QuadratureNotConverged):
        sigma_squared(sinc, spec)
    with pytest.raises(QuadratureNotConverged):
        sigma_lower_bound(sinc, spec)


def test_predicted_covariance_kink_edges(sinc):
    # the indicator cross-correlation kinks at z = +-R * 0.1 and F(|z|) at 0;
    # reference: 20-point Gauss-Legendre on panels of 0.01 with edges there
    phi = TestFunction.indicator(0.0, 0.1)
    R = 100.0
    zmax = 2.0 * R * 0.1 + 1.0
    edges = np.unique(np.r_[np.arange(-zmax, zmax, 0.01), zmax, -10.0, 0.0, 10.0])
    lo, hi = edges[:-1], edges[1:]
    x, w = np.polynomial.legendre.leggauss(20)
    z = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * x
    g = two_point_F(sinc, z) * phi.cross_correlation(phi, z / R)
    ref = R * float(np.sum(g @ w * 0.5 * (hi - lo))) + R / math.pi * 0.1
    assert predicted_covariance(sinc, phi, phi, R) == pytest.approx(ref, abs=1e-8)


def test_cross_correlation_arrays():
    ind = TestFunction.indicator(0.0, 1.0)
    g = TestFunction.gaussian(0.2, 0.5)
    tab = TestFunction.table([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    u = np.linspace(-2.5, 2.5, 11)
    for f1, f2 in ((ind, ind), (g, g), (ind, g), (g, ind), (tab, ind)):
        arr = f1.cross_correlation(f2, u)
        assert isinstance(f1.cross_correlation(f2, 0.3), float)
        np.testing.assert_allclose(
            arr, [f1.cross_correlation(f2, v) for v in u], rtol=0.0, atol=1e-15)

