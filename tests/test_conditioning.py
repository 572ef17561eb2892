import math

import numpy as np
import pytest

from gausszeros.conditioning import (MonteCarloSpec, assemble_context, pi_k)
from gausszeros.densities import vanishing_constant
from gausszeros.errors import NotPSD, OrderUnavailable
from gausszeros.models import tail_norm
from gausszeros.partitions import IndexPartition, cluster_partition


def test_single_point_context(bf):
    ctx = assemble_context(bf, [0.7], IndexPartition.singletons(1))
    np.testing.assert_allclose(ctx.theta, [[1.0]])
    np.testing.assert_allclose(ctx.xi, [[0.0]], atol=1e-15)
    np.testing.assert_allclose(ctx.omega, [[1.0]])
    np.testing.assert_allclose(ctx.lam, [[1.0]])
    assert ctx.d_value == pytest.approx(1.0)


def test_two_point_determinant(presets):
    # singleton-partition determinant is 1 - kappa(z)^2
    for model in presets.values():
        for z in np.linspace(0.01, 10.0, 45):
            ctx = assemble_context(model, [0.0, z], IndexPartition.singletons(2))
            assert ctx.d_value == pytest.approx(
                1.0 - model.kappa(z) ** 2, abs=1e-10), (model.kind, z)


def test_merged_pair_tends_to_derivative_pair(bf):
    # one-block covariance of ([f]_1, [f]_2) approaches Var(f, f') = identity
    ctx = assemble_context(bf, [0.0, 1e-6], IndexPartition.one_block(2))
    np.testing.assert_allclose(ctx.theta, np.eye(2), atol=1e-5)
    ctx0 = assemble_context(bf, [0.0, 0.0], IndexPartition.one_block(2))
    np.testing.assert_allclose(ctx0.theta, np.eye(2), atol=1e-15)


def test_order_unavailable(bf):
    with pytest.raises(OrderUnavailable):
        assemble_context(bf, np.linspace(0, 6, 7), IndexPartition.singletons(7))


def test_pi_k_closed_forms():
    assert pi_k(np.array([[4.0]]))[0] == pytest.approx(
        2.0 * math.sqrt(2.0 / math.pi))
    assert pi_k(np.eye(2))[0] == pytest.approx(2.0 / math.pi)
    # perfectly correlated pair: E|X||Y| = E X^2 = 1
    assert pi_k(np.array([[1.0, 1.0], [1.0, 1.0]]))[0] == pytest.approx(1.0)


def test_pi_k_powers_closed_forms():
    # E|Z|^q for Z ~ N(0, 4): 4, 16 sqrt(2/pi), 48
    for q, expect in ((2, 4.0), (3, 16.0 * math.sqrt(2.0 / math.pi)), (4, 48.0)):
        assert pi_k(np.array([[4.0]]), powers=[q]) == (pytest.approx(expect), 0.0)


def test_pi_k_powers_group_split():
    # uncoupled coordinates: the product of one-coordinate moments, exactly,
    # E X^2 E|Y|^3 E|W| = 1 * 2^1.5 * 2 sqrt(2/pi) * sqrt(3) sqrt(2/pi)
    u = np.diag([1.0, 2.0, 3.0])
    val, err = pi_k(u, MonteCarloSpec(samples=1000, seed=4), [2, 3, 1])
    expect = 2.0 ** 2.5 * math.sqrt(3.0) * 2.0 / math.pi
    assert err == 0.0
    assert val == pytest.approx(expect, rel=1e-14)
    # a coupled pair samples: E X^2 Y^2 = u11 u22 + 2 u12^2
    pair = np.array([[1.0, 0.4], [0.4, 2.0]])
    val, err = pi_k(pair, MonteCarloSpec(samples=400_000, seed=4), [2, 2])
    assert 0.0 < err < 0.02
    assert abs(val - 2.32) < 4.0 * err


def test_pi_k_identity_monte_carlo():
    for k in (3, 4):
        val, err = pi_k(np.eye(k), MonteCarloSpec(samples=400_000, seed=5))
        expect = (2.0 / math.pi) ** (k / 2.0)
        assert err < 0.01
        assert abs(val - expect) < 3.0 * max(err, 1e-12) + 1e-9


def test_pi_k_block_diagonal_is_exact():
    # weakly coupled blocks resolve through closed forms + coupled correction
    u = np.zeros((4, 4))
    u[:2, :2] = [[1.0, 0.3], [0.3, 1.0]]
    u[2:, 2:] = [[0.8, -0.1], [-0.1, 0.9]]
    val, err = pi_k(u, MonteCarloSpec(samples=100_000, seed=9))
    expect = pi_k(u[:2, :2])[0] * pi_k(u[2:, 2:])[0]
    assert err < 1e-12
    assert val == pytest.approx(expect, rel=1e-12)


def test_pi_k_determinism():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    u = a @ a.T
    mc = MonteCarloSpec(samples=200_000, seed=77)
    assert pi_k(u, mc) == pi_k(u, mc)


def test_pi_k_rejects_indefinite():
    with pytest.raises(NotPSD):
        pi_k(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _random_psd(rng, k, scale=1.0):
    a = rng.standard_normal((k, k)) * scale
    return a @ a.T / k


def test_pi_k_holder_property(rng):
    # |Pi(V) - Pi(U)| <= C_k ||V-U||^(1/2) max(||U||,||V||)^((k-1)/2)
    mc = MonteCarloSpec(samples=150_000, seed=11)
    mu = {2: 3.0, 3: 15.0, 4: 105.0}  # 2k-th standard Gaussian moments
    for k in (2, 3, 4):
        c_k = k * (2 * k + 1) ** ((k + 1) / 2.0) * math.sqrt(mu[k])
        for trial in range(25):
            u = _random_psd(rng, k)
            if trial % 2:
                v = u + _random_psd(rng, k, scale=1e-3)
            else:
                v = _random_psd(rng, k)
            pu, eu = pi_k(u, mc)
            pv, ev = pi_k(v, mc)
            norm_uv = np.abs(v - u).max()
            bound = c_k * math.sqrt(norm_uv) * max(
                np.abs(u).max(), np.abs(v).max()) ** ((k - 1) / 2.0)
            assert abs(pv - pu) <= bound + 3.0 * (eu + ev) + 1e-12


def test_translation_invariance(bf, rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        x = np.sort(rng.uniform(0.0, 4.0, n))
        # open gaps: a value-route k-th difference over a gap h carries an
        # irreducible eps/h^k conditioning, which is not what this verifies
        while np.min(np.diff(x)) < 5e-2:
            x = np.sort(rng.uniform(0.0, 4.0, n))
        part = cluster_partition(x, 1.0)
        a = assemble_context(bf, x, part)
        b = assemble_context(bf, x + 17.25, part)
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)
        np.testing.assert_allclose(a.xi, b.xi, atol=1e-10)
        np.testing.assert_allclose(a.omega, b.omega, atol=1e-10)


def test_block_decay(bf):
    # off-diagonal blocks across a gap eta are bounded by the tail norm
    eta = 4.0
    x = np.array([0.0, 0.5, eta + 0.5, eta + 1.0])
    part = cluster_partition(x, 1.0)
    ctx = assemble_context(bf, x, part)
    bound = tail_norm(bf, 4, eta) * (1 + 1e-9)
    for mat in (ctx.theta, ctx.xi, ctx.omega):
        off = np.abs(mat[:2, 2:])
        assert off.max() <= bound


def test_entry_bounds(bf, rng):
    # every entry bounded by the max of |kappa^(l)| over l <= 2n
    for _ in range(10):
        n = int(rng.integers(2, 5))
        x = np.sort(rng.uniform(0.0, 5.0, n))
        part = cluster_partition(x, 1.0)
        ctx = assemble_context(bf, x, part)
        bound = tail_norm(bf, 2 * n, 0.0) * (1 + 1e-9)
        for mat in (ctx.theta, ctx.xi, ctx.omega):
            assert np.abs(mat).max() <= bound


def test_schur_psd(bf, rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        x = np.sort(rng.uniform(0.0, 6.0, n))
        part = cluster_partition(x, 1.0)
        ctx = assemble_context(bf, x, part)
        w = np.linalg.eigvalsh(ctx.lam)
        assert w.min() >= -1e-10 * np.trace(ctx.omega)


def _shape(rng, k, shape):
    if shape == "tight":
        gaps = rng.uniform(0.5, 1.5, k - 1)
        gaps *= 0.5 / max(gaps.sum(), 1e-300)
    elif shape == "spread":
        gaps = rng.uniform(0.8, 0.9, k - 1)
    else:
        left = k // 2
        gaps = np.concatenate([np.full(left - 1, 0.3 / max(left - 1, 1)), [8.0],
                               np.full(k - left - 1, 0.3 / max(k - left - 1, 1))])
    return rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(gaps)])


def test_one_derivs_call_per_configuration(presets, table, rng, monkeypatch):
    calls = []
    for model in list(presets.values()) + [table]:
        derivs = model.derivs
        monkeypatch.setattr(model, "derivs",
                            lambda x, m, d=derivs: calls.append(x) or d(x, m))
        for k in range(2, 7):
            for shape in ("tight", "spread", "two-cluster"):
                x = _shape(rng, k, shape)
                calls.clear()
                ctx = assemble_context(model, x, cluster_partition(x, 1.0))
                assert len(calls) == 1, (model.kind, k, shape)
                assert len(ctx.routes) == ctx.partition.num_blocks
        calls.clear()
        vanishing_constant(model, [0.0, 0.0, 2.0, 2.0],
                           MonteCarloSpec(samples=1000, seed=1))
        assert len(calls) == 1, model.kind


def test_routes_reported(bf):
    def routes(x):
        return assemble_context(bf, x, cluster_partition(x, 1.0)).routes
    assert routes([0.0, 0.3, 5.0]) == ("taylor", "taylor")
    assert routes([0.0, 0.9, 1.8]) == ("newton",)
    assert routes([0.0, 2.0]) == ("closed-form", "closed-form")
