import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gausszeros.errors import ConfigError, DegenerateDensity, OrderUnavailable
from gausszeros.models import (SpectralDensity, eval_kappa_derivs, get_model,
                               load_spectral_table,
                               normalize_from_spectral_density, tail_norm)

GRID = np.linspace(-6.0, 6.0, 41)


def test_bargmann_fock_at_zero(bf):
    d = eval_kappa_derivs(bf, 0.0, 2)
    assert d[0] == 1.0
    assert d[1] == 0.0
    assert d[2] == -1.0


def test_bargmann_fock_at_one(bf):
    # symbolic differentiation of exp(-x^2/2): k' = -x k, k'' = (x^2-1) k
    d = eval_kappa_derivs(bf, 1.0, 2)
    assert d[0] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert d[1] == pytest.approx(-math.exp(-0.5), rel=1e-15)
    assert abs(d[2]) < 1e-16


def test_odd_orders_vanish_at_zero(presets):
    for model in presets.values():
        d = eval_kappa_derivs(model, 0.0, model.max_derivative_order)
        for j in range(1, model.max_derivative_order + 1, 2):
            assert d[j] == 0.0, (model.kind, j)


def test_normalization_invariants(presets):
    for model in presets.values():
        d = eval_kappa_derivs(model, 0.0, 2)
        assert d[0] == 1.0 and d[2] == -1.0
        vals = model.derivs(GRID, 0)[0]
        assert np.all(np.abs(vals) <= 1.0 + 1e-15), model.kind


def test_evenness(presets):
    for model in presets.values():
        for x in (0.3, 1.1, 2.7, 5.5):
            plus = eval_kappa_derivs(model, x, 8)
            minus = eval_kappa_derivs(model, -x, 8)
            signs = (-1.0) ** np.arange(9)
            np.testing.assert_allclose(minus, signs * plus, rtol=1e-12,
                                       atol=1e-15)


def test_derivatives_match_finite_differences(presets):
    h = 1e-4
    for model in presets.values():
        for x in np.linspace(-4.0, 4.0, 17):
            d = eval_kappa_derivs(model, x, 6)
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
        eval_kappa_derivs(bf, 0.0, bf.max_derivative_order + 1)
    with pytest.raises(OrderUnavailable):
        tail_norm(bf, bf.max_derivative_order + 1, 0.0)


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


def _gaussian_density():
    return SpectralDensity(
        func=lambda t: np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
        xi_max=12.0, tail_kind="gaussian",
        tail_params=(1.0 / math.sqrt(2 * math.pi), 0.5))


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
    dens = SpectralDensity(func=lambda t: np.exp(-np.abs(t)) * (1 + t * t),
                           xi_max=40.0, tail_kind="none")
    model = normalize_from_spectral_density(dens)
    d = model.derivs(0.0, 2)
    assert d[0] == pytest.approx(1.0, abs=1e-8)
    assert d[2] == pytest.approx(-1.0, abs=1e-8)


def test_degenerate_density_rejected():
    dens = SpectralDensity(func=lambda t: np.zeros_like(np.asarray(t)),
                           xi_max=1.0, tail_kind="none")
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
