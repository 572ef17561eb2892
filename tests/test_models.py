import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gausszeros.errors import (ConfigError, DegenerateDensity, OrderUnavailable,
                               QuadratureNotConverged)
from gausszeros.models import (SpectralDensity, SpectralTableModel, get_model,
                               load_spectral_table,
                               normalize_from_spectral_density, tail_norm)

GRID = np.linspace(-6.0, 6.0, 41)


def test_bargmann_fock_at_zero(bf):
    d = bf.derivs(0.0, 2)
    assert d[0] == 1.0
    assert d[1] == 0.0
    assert d[2] == -1.0


def test_bargmann_fock_at_one(bf):
    # symbolic differentiation of exp(-x^2/2): k' = -x k, k'' = (x^2-1) k
    d = bf.derivs(1.0, 2)
    assert d[0] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert d[1] == pytest.approx(-math.exp(-0.5), rel=1e-15)
    assert abs(d[2]) < 1e-16


def test_odd_orders_vanish_at_zero(presets):
    for model in presets.values():
        d = model.derivs(0.0, model.max_derivative_order)
        for j in range(1, model.max_derivative_order + 1, 2):
            assert d[j] == 0.0, (model.kind, j)


def test_normalization_invariants(presets):
    for model in presets.values():
        d = model.derivs(0.0, 2)
        assert d[0] == 1.0 and d[2] == -1.0
        vals = model.derivs(GRID, 0)[0]
        assert np.all(np.abs(vals) <= 1.0 + 1e-15), model.kind


def test_evenness(presets):
    for model in presets.values():
        for x in (0.3, 1.1, 2.7, 5.5):
            plus = model.derivs(x, 8)
            minus = model.derivs(-x, 8)
            signs = (-1.0) ** np.arange(9)
            np.testing.assert_allclose(minus, signs * plus, rtol=1e-12,
                                       atol=1e-15)


def test_derivatives_match_finite_differences(presets):
    h = 1e-4
    for model in presets.values():
        for x in np.linspace(-4.0, 4.0, 17):
            d = model.derivs(x, 6)
            for j in range(1, 7):
                fd = (model.derivs(x + h, j - 1)[j - 1]
                      - model.derivs(x - h, j - 1)[j - 1]) / (2 * h)
                if abs(d[j]) > 1e-3:
                    assert abs(fd - d[j]) / abs(d[j]) < 1e-6, (model.kind, x, j)
                else:
                    # relative error is meaningless at parity zeros; the
                    # central-difference truncation is O(h^2) absolute
                    assert abs(fd - d[j]) < 1e-6, (model.kind, x, j)


def test_order_unavailable(bf):
    with pytest.raises(OrderUnavailable):
        tail_norm(bf, bf.max_derivative_order + 1, 0.0)


def test_derivs_refuse_orders_above_cap(presets, table):
    for model in list(presets.values()) + [table]:
        cap = model.internal_order_cap
        assert model.derivs(0.5, cap).shape == (cap + 1,)
        with pytest.raises(OrderUnavailable, match=f"{model.kind}.*not {cap + 1}"):
            model.derivs(0.5, cap + 1)
        with pytest.raises(OrderUnavailable):
            model.derivs(np.array([0.0, 1.0]), cap + 1)


def test_tail_norm_examples(bf):
    # |kappa| monotone on [0, inf): sup over |x| >= 2 is e^-2, hit on-grid
    assert tail_norm(bf, 0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)
    # sup attained at 0 where kappa(0) = 1
    assert tail_norm(bf, 0, 0.0) == pytest.approx(1.0, rel=1e-12)
    # orders up to 2: |kappa''| peaks at 1 at the origin, beating 2 e^{-3/2}
    assert tail_norm(bf, 2, 0.0) == pytest.approx(1.0, rel=1e-9)


def test_tail_norm_monotonicity(presets):
    for model in presets.values():
        etas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [tail_norm(model, 2, e) for e in etas]
        for a, b in zip(vals[:-1], vals[1:]):
            assert b <= a + 1e-9, model.kind
        k_vals = [tail_norm(model, k, 1.0) for k in range(0, 5)]
        for a, b in zip(k_vals[:-1], k_vals[1:]):
            assert b >= a - 1e-12, model.kind


def test_tail_norm_without_envelope_is_the_moment_bound(table):
    # no tail envelope: the largest spectral moment bound, with no grid search
    assert table.envelope_start(0) is None
    for k in range(5):
        for eta in (0.0, 1.0, 3.0):
            t0 = time.perf_counter()
            value = tail_norm(table, k, eta)
            assert time.perf_counter() - t0 < 0.05
            assert value == max(table.moment_bound(l) for l in range(k + 1))
    # the bound holds: |kappa^(l)| on a grid stays below it
    grid = np.linspace(0.0, 20.0, 401)
    assert np.abs(table.derivs(grid, 4)).max() <= tail_norm(table, 4, 0.0)


def _gaussian_density():
    # the declared tail carries the standard gaussian from the second node on
    xi = np.array([0.0, 1e-6])
    c = 1.0 / math.sqrt(2 * math.pi)
    return SpectralDensity(xi=xi, g=c * np.exp(-0.5 * xi * xi),
                           tail_kind="gaussian", tail_params=(c, 0.5))


def test_spectral_gaussian_recovers_bargmann_fock(bf):
    model = normalize_from_spectral_density(_gaussian_density())
    for x in (0.0, 0.4, 1.0, 2.5):
        d = model.derivs(x, 2)
        ref = bf.derivs(x, 2)
        np.testing.assert_allclose(d, ref, atol=1e-8)


def test_spectral_uniform_recovers_sinc(sinc):
    s3 = math.sqrt(3.0)
    dens = SpectralDensity(xi=np.array([0.0, s3]),
                           g=np.array([1 / (2 * s3), 1 / (2 * s3)]),
                           tail_kind="none")
    model = normalize_from_spectral_density(dens)
    for x in (0.0, 0.3, 1.0, 2.0):
        assert model.kappa(x) == pytest.approx(sinc.kappa(x), abs=1e-8)


def test_spectral_identity_rescale():
    # an already-normalized density: mass 1, second moment 1
    model = normalize_from_spectral_density(_gaussian_density())
    assert model.moment_bound(0) == pytest.approx(1.0, abs=1e-10)
    assert model.moment_bound(2) == pytest.approx(1.0, abs=1e-10)


def test_spectral_normalized_invariants():
    # an arbitrary un-normalized density gets rescaled to kappa(0)=1, kappa''(0)=-1
    xi = np.linspace(0.0, 40.0, 4001)
    dens = SpectralDensity(xi=xi, g=np.exp(-xi) * (1 + xi * xi), tail_kind="none")
    model = normalize_from_spectral_density(dens)
    d = model.derivs(0.0, 2)
    assert d[0] == pytest.approx(1.0, abs=1e-8)
    assert d[2] == pytest.approx(-1.0, abs=1e-8)


def test_degenerate_density_rejected():
    dens = SpectralDensity(xi=np.array([0.0, 1.0]), g=np.zeros(2),
                           tail_kind="none")
    with pytest.raises(DegenerateDensity):
        normalize_from_spectral_density(dens)


def test_spectral_table_json_roundtrip(tmp_path, bf):
    xi = np.linspace(0.0, 10.0, 400)
    doc = {"xi": list(xi),
           "g": list(np.exp(-0.5 * xi * xi) / math.sqrt(2 * math.pi)),
           "tail": {"kind": "gaussian",
                    "params": [1.0 / math.sqrt(2 * math.pi), 0.5]}}
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(doc))
    model = load_spectral_table(str(path))
    assert model.kappa(1.0) == pytest.approx(bf.kappa(1.0), abs=2e-4)


def test_get_model_errors():
    with pytest.raises(ConfigError):
        get_model("no-such-model")


def test_spectral_density_transforms_to_kappa(presets, table):
    # kappa(x) = int g(xi) e^{i xi x} dxi = 2 int_0^inf g(xi) cos(xi x) dxi
    models = dict(presets, table=table)
    for name, model in models.items():
        upper = math.sqrt(3.0) if name == "sinc-sqrt3" else 60.0
        # the table density has kinks at its (rescaled) nodes
        kinks = table._kinks[1:-1] if model is table else None

        def half_line(weight):
            val, _ = quad(lambda t: weight(t) * model.spectral_density(t),
                          0.0, upper, points=kinks, limit=400, epsabs=1e-10)
            return 2.0 * val

        assert half_line(lambda t: 1.0) == pytest.approx(1.0, abs=1e-7), name
        assert half_line(lambda t: t * t) == pytest.approx(1.0, abs=1e-7), name
        for x in (0.5, 1.0, 2.0):
            got = half_line(lambda t: math.cos(t * x))
            assert got == pytest.approx(model.kappa(x), abs=1e-7), (name, x)


def test_huge_arguments_finite(presets, table):
    # BF: exp(-x^2/2) underflows to exact zeros; cauchy: no x^2 overflow;
    # table models return 0 beyond their integration-by-parts bound
    for model in list(presets.values()) + [table]:
        for x in (50.0, 1e20, 1e300, -1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                d = model.derivs(x, 4)
                om2 = model.one_minus_kappa(x) * (1.0 + d[0])
            assert np.all(np.isfinite(d)) and np.isfinite(om2), (model.kind, x)
            assert 0.0 <= om2 <= 1.0 + 1e-12, (model.kind, x)


def test_table_nan_point_is_nan(table):
    # as on the presets; it joins the x = 0 octave and changes no other point
    d = table.derivs(np.array([0.5, math.nan]), 4)
    assert np.isnan(d[:, 1]).all() and np.isnan(table.one_minus_kappa(math.nan))
    np.testing.assert_array_equal(d[:, 0], table.derivs(0.5, 4))


def test_table_node_budget_refuses_far_points(table):
    # panels grow like |x|: 1e6 would need ~1.3e8 nodes on this table
    for evaluate in (lambda: table.derivs(1e6, 2),
                     lambda: table.one_minus_kappa(1e6)):
        start = time.perf_counter()
        with pytest.raises(QuadratureNotConverged, match="1e.06.*budget"):
            evaluate()
        assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize("m, top", [(3.5, 2), (4.5, 3), (5.0, 3), (10.0, 8),
                                    (12.25, 11)])
def test_max_finite_moment_power_tail(m, top):
    # int |xi|^j |xi|^-m is finite exactly for j < m - 1
    dens = SpectralDensity(xi=np.array([0.0, 1.0]), g=np.array([1.0, 0.5]),
                           tail_kind="power", tail_params=(0.5, m))
    assert dens.max_finite_moment() == top
    assert math.isfinite(dens.tail_moment_bound(top, 1.0))
    assert dens.tail_moment_bound(top + 1, 1.0) == math.inf


@pytest.mark.parametrize("kind, params", [
    ("gaussian", (1.0,)), ("gaussian", (1.0, 0.5, 2.0)), ("power", ("x", 4.0)),
    ("power", (None, 4.0)), ("gaussian", (math.nan, 0.5)),
    ("gaussian", (-1.0, 0.5)), ("none", (1.0,)), ("gaussian", "c a"),
])
def test_spectral_density_refuses_bad_tail_params(kind, params):
    with pytest.raises(ConfigError):
        SpectralDensity(xi=np.array([0.0, 1.0]), g=np.array([1.0, 0.5]),
                        tail_kind=kind, tail_params=params)


@pytest.mark.parametrize("xi, g", [
    ([0.0, "a"], [1.0, 0.5]), ([0.0, None], [1.0, 0.5]),
    ([0.0, 1.0], [1.0, math.inf]), ([0.0, [1.0]], [1.0, 0.5]),
    ([1.0, 2.0], [1.0, 1.0]), ([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0]),
])
def test_spectral_density_refuses_bad_tables(xi, g):
    with pytest.raises(ConfigError):
        SpectralDensity(xi=xi, g=g)


def test_table_model_builds_its_zero_quadrature_once(monkeypatch):
    # the moments and the far-field bound share one set of x = 0 nodes
    calls = []
    panels_for = SpectralTableModel._panels_for

    def spy(self, x):
        calls.append(x)
        return panels_for(self, x)

    monkeypatch.setattr(SpectralTableModel, "_panels_for", spy)
    xi = np.linspace(0.0, 3.0, 13)
    SpectralTableModel(SpectralDensity(xi=xi, g=np.exp(-0.5 * xi * xi),
                                       tail_kind="gaussian",
                                       tail_params=(math.exp(4.5), 0.5)))
    assert calls == [0.0]


@pytest.mark.parametrize("doc", [
    [1, 2], {"xi": [0.0, 1.0]}, {"xi": [0.0, 1.0], "g": [1.0, 0.5], "tail": 3},
])
def test_load_spectral_table_refuses_malformed_documents(tmp_path, doc):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_spectral_table(str(path))


@pytest.mark.parametrize("m", [3.5, 5.0, 10.0])
def test_heavy_power_tail_refused_by_its_truncation(m):
    dens = SpectralDensity(xi=np.linspace(0.0, 2.0, 5),
                           g=np.array([1.0, 0.9, 0.6, 0.3, 0.1]),
                           tail_kind="power", tail_params=(0.1, m))
    start = time.perf_counter()
    with pytest.raises(DegenerateDensity, match="power tail.*beyond T = "):
        normalize_from_spectral_density(dens)
    assert time.perf_counter() - start < 0.2
