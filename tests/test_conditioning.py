import inspect
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausszeros import conditioning, densities, models
from gausszeros.conditioning import (_BLOCK, _KOROBOV, MonteCarloSpec, _budget,
                                     _lattice, _mc_abs_product, _ndtri,
                                     _pi3_closed, _rotations, assemble_context,
                                     pi_k)
from gausszeros.densities import rho_k, vanishing_constant
from gausszeros.errors import ConfigError, NotPSD, OrderUnavailable, SizeCap
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


@pytest.mark.parametrize("powers", [[-1, 1], [1.5, 1], [1, -2, 1],
                                    [math.inf, 1], [math.nan, 1]])
def test_pi_k_rejects_bad_powers(powers):
    with pytest.raises(ConfigError, match="power"):
        pi_k(np.eye(len(powers)), powers=powers)


def test_pi_k_zero_power():
    # E|X|^0 |Y| = E|Y| = sqrt(2/pi) for independent standard normals
    assert pi_k(np.eye(2), powers=[0, 1]) == (pytest.approx(math.sqrt(2 / math.pi)),
                                              0.0)


def test_pi_k_powers_group_split():
    # uncoupled coordinates: the product of one-coordinate moments, exactly,
    # E X^2 E|Y|^3 E|W| = 1 * 2^1.5 * 2 sqrt(2/pi) * sqrt(3) sqrt(2/pi)
    u = np.diag([1.0, 2.0, 3.0])
    val, err = pi_k(u, MonteCarloSpec(samples=1000, seed=4), [2, 3, 1])
    expect = 2.0 ** 2.5 * math.sqrt(3.0) * 2.0 / math.pi
    assert err == 0.0
    assert val == pytest.approx(expect, rel=1e-14)
    # a coupled pair is a polynomial moment, exact by the recursion:
    # E X^2 Y^2 = u11 u22 + 2 u12^2
    pair = np.array([[1.0, 0.4], [0.4, 2.0]])
    val, err = pi_k(pair, MonteCarloSpec(samples=400_000, seed=4), [2, 2])
    assert val == pytest.approx(2.32, rel=1e-14)
    assert 0.0 <= err < 1e-14


def _pi3_reference(u) -> float:
    """E|X1 X2 X3| by a 2-D Gauss-Legendre rule in 20-digit mpmath.

    With C the Cholesky factor of Cov(X1, X2) and (X1, X2) = C z, X3 given
    z is N(g.z, sigma^2), whose absolute mean sigma h(g.z / sigma) is
    smooth.  The integral over z runs in polar coordinates, with angular
    panels cut where X1, X2 or E(X3 | z) vanishes (the kinks of |x1 x2|
    and the bend of h) and radial panels on [0, 12]; the integrand is
    even in z, so half the angles suffice.
    """
    import mpmath as mp
    from mpmath.calculus.quadrature import GaussLegendre

    with mp.workdps(20):
        def nodes(a, b, degree):
            return GaussLegendre(mp.mp).get_nodes(mp.mpf(a), mp.mpf(b), degree,
                                                  mp.mp.prec)

        u = [[mp.mpf(float(v)) for v in row] for row in u]
        c11 = mp.sqrt(u[0][0])
        c21 = u[1][0] / c11
        c22 = mp.sqrt(u[1][1] - c21 ** 2)
        g1 = u[2][0] / c11
        g2 = (u[2][1] - c21 * g1) / c22
        sigma = mp.sqrt(u[2][2] - g1 ** 2 - g2 ** 2)
        radial = [nw for a, b in ((0, 1), (1, 3), (3, 12)) for nw in nodes(a, b, 4)]
        cuts = sorted([mp.pi / 2, mp.atan(-c21 / c22) % mp.pi,
                       mp.atan(-g1 / g2) % mp.pi])
        cuts.append(cuts[0] + mp.pi)
        total = mp.mpf(0)
        for a, b in zip(cuts[:-1], cuts[1:]):
            for phi, w_phi in nodes(a, b, 5):
                c, s = mp.cos(phi), mp.sin(phi)
                m = (g1 * c + g2 * s) / sigma
                inner = mp.fsum(
                    w * rho ** 3 * mp.exp(-rho ** 2 / 2)
                    * (mp.sqrt(2 / mp.pi) * mp.exp(-(m * rho) ** 2 / 2)
                       + m * rho * mp.erf(m * rho / mp.sqrt(2)))
                    for rho, w in radial)
                total += w_phi * abs(c11 * c * (c21 * c + c22 * s)) * inner
        return float(sigma * total / mp.pi)


def test_pi3_closed_form_matches_quadrature():
    rng = np.random.default_rng(1)
    negative = 0
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        scales = rng.uniform(0.2, 3.0, 3)
        u = a @ a.T * np.outer(scales, scales)
        negative += int((u < 0).any())
        val, err = pi_k(u)
        assert err == 0.0
        assert val == pytest.approx(_pi3_reference(u), rel=1e-12)
    assert negative >= 2


def test_pi3_closed_form_limits():
    s = np.array([1.0, 2.0, 0.5])
    prod = float(s.prod())
    for r, expect in (
            # independence
            (np.eye(3), (2.0 / math.pi) ** 1.5),
            # X1 = X2: E X1^2 |X3| = sqrt(2/pi) (1 + r13^2)
            ([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]],
             math.sqrt(2.0 / math.pi) * 1.09),
            ([[1.0, -1.0, 0.3], [-1.0, 1.0, -0.3], [0.3, -0.3, 1.0]],
             math.sqrt(2.0 / math.pi) * 1.09),
            # rank one: E|Z|^3
            (np.ones((3, 3)), 2.0 * math.sqrt(2.0 / math.pi)),
            ([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]],
             2.0 * math.sqrt(2.0 / math.pi))):
        val, err = pi_k(np.asarray(r) * np.outer(s, s))
        assert err == 0.0
        assert val == pytest.approx(expect * prod, rel=1e-14)
    # the limits are continuous: a near-perfect pair lands next to them
    near = np.array([[1.0, 1.0 - 1e-12, 0.3], [1.0 - 1e-12, 1.0, 0.3],
                     [0.3, 0.3, 1.0]])
    assert pi_k(near)[0] == pytest.approx(math.sqrt(2.0 / math.pi) * 1.09,
                                          rel=1e-5)
    equal = np.full((3, 3), 1.0 - 1e-12) + 1e-12 * np.eye(3)
    assert pi_k(equal)[0] == pytest.approx(2.0 * math.sqrt(2.0 / math.pi),
                                           rel=1e-5)
    # a zero-variance coordinate vanishes identically
    u = np.diag([1.0, 0.0, 2.0])
    u[0, 2] = u[2, 0] = 0.5
    assert pi_k(u) == (0.0, 0.0)


def _plain_stderr(u, samples, seed):
    """Standard error of plain Monte Carlo, prod |(L w)_i| over normals w."""
    L = np.linalg.cholesky(u)
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    for _ in range(samples // 250_000):
        vals = np.abs(L @ rng.standard_normal((u.shape[0], 250_000))).prod(axis=0)
        total += vals.sum()
        total_sq += vals @ vals
    mean = total / samples
    return math.sqrt((total_sq / samples - mean * mean) / samples)


def test_default_budget_beats_a_million_plain_samples(bf, sinc):
    # one coupled group each: a 6-point spread bargmann-fock configuration
    # through pi_k, and a 4-point sinc one through the sampler itself, since
    # pi_k takes 4 coordinates by the recursion
    for model, k in ((bf, 6), (sinc, 4)):
        x = 0.85 * np.arange(k)
        u = assemble_context(model, x, cluster_partition(x, 1.0)).lam
        val, err = (pi_k(u) if k == 6 else
                    _mc_abs_product(np.linalg.cholesky(u), MonteCarloSpec()))
        assert 0.0 < err <= _plain_stderr(u, 1_000_000, seed=k)


@pytest.mark.parametrize("samples", [-5, 0, 1])
def test_monte_carlo_spec_refuses_tiny_budgets(samples):
    with pytest.raises(ConfigError):
        MonteCarloSpec(samples=samples)


@pytest.mark.parametrize("field, value", [("samples", 1e6), ("samples", "4096"),
                                          ("samples", np.float64(4096.0)),
                                          ("seed", 1.5), ("seed", None)])
def test_monte_carlo_spec_refuses_non_integers(field, value):
    with pytest.raises(ConfigError, match=field):
        MonteCarloSpec(**{field: value})


def test_monte_carlo_spec_takes_numpy_integers():
    mc = MonteCarloSpec(samples=np.int64(1 << 15), seed=np.uint32(12))
    assert type(mc.samples) is int and type(mc.seed) is int
    assert mc == MonteCarloSpec(samples=1 << 15, seed=12)


def test_monte_carlo_spec_refuses_budgets_beyond_the_rotation_cap():
    # a call draws all its rotations at once: 2^12 at most, the largest
    # lattice's 2^16 points each; only the construction is tried, since a
    # far larger budget would draw gigabytes of rotations
    cap = conditioning._MAX_ROTATIONS
    assert _budget(cap * 2 ** 16) == (2 ** 16, cap)
    MonteCarloSpec(samples=(cap + 1) * 2 ** 16 - 1)
    with pytest.raises(SizeCap):
        MonteCarloSpec(samples=(cap + 1) * 2 ** 16)
    assert _budget(MonteCarloSpec(samples=1 << 23).samples) == (2 ** 16, 128)


@pytest.mark.parametrize("samples", [2, 9])
def test_tiny_budgets_state_an_error(samples):
    # budgets below 32 take the 2-point lattice at samples // 2 rotations,
    # and one rotation would state a zero error: two are taken
    assert _budget(2) == (2, 2) and _budget(9) == (2, 4)
    u = 0.7 * np.eye(6) + 0.3  # 6 coordinates: pi_k samples
    for val, err in (_mc_abs_product(np.eye(4), MonteCarloSpec(samples, seed=2)),
                     pi_k(u, MonteCarloSpec(samples, seed=2))):
        assert math.isfinite(val) and math.isfinite(err) and err > 0.0


def _estimates(L, powers=None, L_control=None):
    """Values and stderrs of 20 default-budget calls on seeds 1000-1019."""
    out = np.array([_mc_abs_product(L, MonteCarloSpec(seed=1000 + seed),
                                    L_control=L_control, powers=powers)
                    for seed in range(20)])
    return out[:, 0], out[:, 1]


def test_mc_abs_product_radial_estimator():
    # 20 seeds against closed forms: no |z| above 4, mean z^2 near 1
    u3 = np.array([[1.0, 0.6, -0.3], [0.6, 1.5, 0.4], [-0.3, 0.4, 0.8]])
    u2 = np.array([[1.0, 0.4], [0.4, 2.0]])
    cases = [(np.linalg.cholesky(u3), _pi3_closed(u3), None),
             # E X^2 Y^2 = u11 u22 + 2 u12^2
             (np.linalg.cholesky(u2), 2.32, np.array([2.0, 2.0]))]
    cases += [(np.eye(k), (2.0 / math.pi) ** (k / 2.0), None) for k in (4, 5, 6)]
    for L, expect, powers in cases:
        vals, errs = _estimates(L, powers)
        assert np.all(errs > 0.0) and np.all(errs < 5e-3 * min(expect, 1.0))
        z = (vals - expect) / errs
        assert np.abs(z).max() <= 4.0, (L.shape, z)
        assert (z * z).mean() <= 2.0, (L.shape, z)


@pytest.mark.parametrize("coupling", [1e-9, 1e-16])
def test_common_random_numbers_cancel_to_the_coupling(coupling):
    # both factors see the same rotated draws, so the correction's noise is
    # of the coupling's size and no rounding of a product with Q_r biases it
    control = np.zeros((4, 4))
    control[:2, :2] = [[1.0, 0.3], [0.3, 1.2]]
    control[2:, 2:] = [[0.9, -0.2], [-0.2, 1.1]]
    u = control.copy()
    u[0, 2] = u[2, 0] = u[1, 3] = u[3, 1] = coupling
    L, L_control = np.linalg.cholesky(u), np.linalg.cholesky(control)
    # the exact correction is of second order in the coupling
    vals, errs = _estimates(L, L_control=L_control)
    assert np.abs(vals / errs).max() <= 4.0, vals / errs
    _, err = _mc_abs_product(L, MonteCarloSpec(), L_control=L_control)
    assert 0.0 < err < coupling


def test_default_call_builds_one_point_set(monkeypatch):
    # a default k = 6 call spends its 2^19 evaluations as 2^15 lattice
    # points at 16 rotations; the point set is built once per process, and
    # each call draws only its 16 Gaussian 6 x 6 matrices
    assert _budget(MonteCarloSpec().samples) == (2 ** 15, 16)
    builds, counts = [], []
    build, chunk_rng = conditioning._build_lattice, conditioning._chunk_rng

    class Spy:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size):
            counts.append(int(np.prod(size)))
            return self.rng.standard_normal(size)

    monkeypatch.setattr(conditioning, "_LATTICE", {})
    monkeypatch.setattr(conditioning, "_build_lattice",
                        lambda n, k: builds.append((n, k)) or build(n, k))
    monkeypatch.setattr(conditioning, "_chunk_rng",
                        lambda seed, index: Spy(chunk_rng(seed, index)))
    u = 0.7 * np.eye(6) + 0.3
    first = pi_k(u)
    assert builds == [(2 ** 15, 6)] and counts == [16 * 36]
    assert conditioning._LATTICE[2 ** 15].shape == (6, 2 ** 15)
    assert pi_k(u) == first
    # a narrower k takes the first rows (pi_k takes k = 4 by the recursion)
    _mc_abs_product(np.linalg.cholesky(u[:4, :4]), MonteCarloSpec())
    assert builds == [(2 ** 15, 6)] and counts == [16 * 36] * 2 + [16 * 16]
    assert pi_k(u, MonteCarloSpec(seed=1))[1] > 0.0
    assert builds == [(2 ** 15, 6)]


def test_rotations_are_haar_and_recompute_a_call():
    rot = _rotations(5, 6, 24)
    assert rot.shape == (24, 6, 6)
    for q in rot:
        assert np.abs(q.T @ q - np.eye(6)).max() <= 1e-14
    assert not np.allclose(rot[0], rot[1])
    assert not any(np.allclose(q, np.eye(6)) for q in rot)
    # the cached points by hand: normals of (a^j i mod n + 1/2) / n
    from scipy.special import ndtri
    mc = MonteCarloSpec(samples=3 * 2 ** 13 + 100, seed=5)
    n, r = _budget(mc.samples)
    assert (n, r) == (1024, 24)
    w = _lattice(n, 6)
    a, i = _KOROBOV[10], np.arange(n)
    expect = np.array([ndtri(((a ** j * i) % n + 0.5) / n) for j in range(6)])
    np.testing.assert_allclose(w, expect, rtol=2e-15, atol=0.0)
    # recompute the call by hand: one mean per rotation over all points
    L = np.linalg.cholesky(0.7 * np.eye(6) + 0.3)
    evals = np.abs(np.einsum("ij,rjl,ln->rin", L, rot, w)).prod(axis=1)
    radial = 2.0 ** 3 * math.gamma(6) / math.gamma(3)
    means = (evals * radial / (w * w).sum(axis=0) ** 3).mean(axis=1)
    val, err = _mc_abs_product(L, mc)
    assert val == pytest.approx(means.mean(), rel=1e-12)
    assert err == pytest.approx(means.std(ddof=1) / math.sqrt(r), rel=1e-9)


def test_ndtri_matches_scipy():
    from scipy.special import ndtri
    p = np.concatenate([
        [1e-300, 1e-20, 0.5 - 1e-17, 0.5 + 1e-17, 0.5 - 2 ** -54, 0.5 + 2 ** -53,
         0.075, 0.925, 1.0 - 2 ** -53],
        np.logspace(-300, -1, 600), np.linspace(1e-3, 1.0 - 1e-3, 1999),
        1.0 - np.logspace(-15, -1, 300)])
    ref, got = ndtri(p), _ndtri(p)
    assert np.array_equal(got == 0.0, ref == 0.0)
    nonzero = ref != 0.0
    assert np.abs(got[nonzero] / ref[nonzero] - 1.0).max() <= 2e-15
    # every coordinate a committed lattice takes, (c + 1/2) / n
    for m in _KOROBOV:
        n = 2 ** m
        assert np.all(np.isfinite(_ndtri((np.arange(n) + 0.5) / n)))


# P_2 of each committed multiplier as the search found it (see _KOROBOV)
_KOROBOV_P2 = {
    1: 0.5455490864447268, 2: 0.21417478299426307, 3: 0.08629331947973862,
    4: 0.034337939805189954, 5: 0.010864320651690962, 6: 0.0037773133921761293,
    7: 0.0014000925819885879, 8: 0.00047225820269281016,
    9: 0.00016369388439252397, 10: 6.656599594068169e-05,
    11: 2.0010681410997933e-05, 12: 6.555867515523062e-06,
    13: 2.3102144304232297e-06, 14: 6.279094937333696e-07,
    15: 2.4443911694760345e-07, 16: 7.815908276143091e-08}


def _korobov_p2(a: int, n: int, dims: int = 6, gamma: float = 0.05) -> float:
    """-1 + mean_i prod_{j<dims} (1 + gamma 2 pi^2 B_2({a^j i / n}))."""
    i, x = np.arange(n), np.arange(n) / n
    b = 1.0 + gamma * 2.0 * math.pi ** 2 * (x * x - x + 1.0 / 6.0)
    prod, g = np.ones(n), 1
    for _ in range(dims):
        prod *= b[g * i % n]
        g = g * a % n
    return float(prod.mean() - 1.0)


def test_korobov_multipliers_are_the_searched_ones():
    rng = np.random.default_rng(6)
    assert sorted(_KOROBOV) == list(range(1, 17))
    for m, a in _KOROBOV.items():
        n = 2 ** m
        merit = _korobov_p2(a, n)
        assert merit == pytest.approx(_KOROBOV_P2[m], rel=1e-12), m
        others = [_korobov_p2(int(b), n) for b in 2 * rng.integers(0, n // 2, 200) + 1]
        assert merit <= min(others), m
        if m >= 3:  # from n = 8 on, not every odd multiplier is equivalent
            assert merit < np.median(others), m


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
    # a size-3 group is exact too
    v = np.zeros((5, 5))
    v[:3, :3] = [[1.0, 0.5, -0.2], [0.5, 2.0, 0.3], [-0.2, 0.3, 0.7]]
    v[3:, 3:] = u[2:, 2:]
    val, err = pi_k(v, MonteCarloSpec(samples=100_000, seed=9))
    assert err < 1e-12
    assert val == pytest.approx(pi_k(v[:3, :3])[0] * pi_k(v[3:, 3:])[0],
                                rel=1e-12)


def test_pi_k_falls_back_when_a_cholesky_fails():
    # two uncoupled groups of 3, the first repeating a coordinate: the PSD
    # gate passes, both the full and the control Cholesky fail, and the
    # plain estimate on the eigen-factor is returned
    u = np.zeros((6, 6))
    u[:3, :3] = [[1.0, 1.0, 0.4], [1.0, 1.0, 0.4], [0.4, 0.4, 1.3]]
    u[3:, 3:] = [[0.9, -0.3, 0.2], [-0.3, 1.1, 0.5], [0.2, 0.5, 0.8]]
    groups = conditioning._correlation_clusters(u, conditioning._BLOCK_THRESHOLD)
    assert groups == [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(u)
    mc = MonteCarloSpec(seed=21)
    val, err = pi_k(u, mc)
    assert (val, err) == _mc_abs_product(conditioning._check_psd_and_factor(u), mc)
    exact = pi_k(u[:3, :3])[0] * pi_k(u[3:, 3:])[0]
    assert 0.0 < err and abs(val - exact) <= 4.0 * err


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
    instances = list(presets.values()) + [table]
    for model in instances:
        # patch the class: undoing a patch of the session instance would
        # leave its bound method behind in the instance's __dict__
        cls = type(model)
        monkeypatch.setattr(cls, "derivs", lambda self, x, m, d=cls.derivs:
                            calls.append(x) or d(self, x, m))
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
    monkeypatch.undo()
    assert not [m.kind for m in instances if "derivs" in vars(m)]


def test_routes_reported(bf):
    def routes(x):
        return assemble_context(bf, x, cluster_partition(x, 1.0)).routes
    assert routes([0.0, 0.3, 5.0]) == ("taylor", "newton")  # singleton at 5
    assert routes([0.0, 0.9, 1.8]) == ("newton",)
    assert routes([0.0, 2.0]) == ("closed-form", "closed-form")


# ---------------------------------------------------------------------------
# Integration by parts (k <= 5)
# ---------------------------------------------------------------------------

def _corr_min_eig(u) -> float:
    d = np.sqrt(np.diag(u))
    return float(np.linalg.eigvalsh(u / np.outer(d, d))[0])


def test_recursion_matches_nabeya_at_k3(rng):
    # three coordinates at powers (1, 1, 1) by the recursion itself; the
    # closed form and the recursion both lose digits to the input's
    # rounding as the correlation matrix nears singular, so the 1e-14 is
    # checked down to a smallest eigenvalue of 1e-4
    checked = 0
    while checked < 100:
        a = rng.standard_normal((3, 3))
        u = a @ a.T / 3
        if _corr_min_eig(u) < 1e-4:
            continue
        val, err = conditioning._ibp_moment(u, np.ones(3, dtype=int))
        assert val == pytest.approx(_pi3_closed(u), rel=1e-14)
        assert 0.0 < err < 1e-14 * val
        checked += 1


def test_recursion_polynomial_moments():
    # E X^2 Y^2 Z^2 by Isserlis, and E Y^4 = 3 u22^2 with powers 0 dropped
    u = np.array([[1.0, 0.4, -0.3], [0.4, 2.0, 0.5], [-0.3, 0.5, 1.5]])
    isserlis = (u[0, 0] * u[1, 1] * u[2, 2] + 8 * u[0, 1] * u[1, 2] * u[0, 2]
                + 2 * (u[0, 0] * u[1, 2] ** 2 + u[1, 1] * u[0, 2] ** 2
                       + u[2, 2] * u[0, 1] ** 2))
    assert pi_k(u, powers=[2, 2, 2])[0] == pytest.approx(isserlis, rel=1e-14)
    assert pi_k(u, powers=[0, 4, 0])[0] == pytest.approx(3 * 4.0, rel=1e-14)


def test_recursion_zero_conditional_variance():
    # a repeated coordinate has conditional variance 0 once its twin is
    # conditioned on: E|X1 X2 X1 X3| = E X1^2 |X2| |X3|
    v = np.array([[1.0, 0.3, -0.2], [0.3, 1.2, 0.4], [-0.2, 0.4, 0.8]])
    u = v[np.ix_([0, 1, 0, 2], [0, 1, 0, 2])]
    expect = pi_k(v, powers=[2, 1, 1])
    got = pi_k(u)
    assert got[0] == pytest.approx(expect[0], rel=1e-13)
    assert got[1] < 1e-13 * got[0]
    # a coordinate of variance 0 makes the moment 0
    w = np.zeros((4, 4))
    w[:3, :3] = v
    assert pi_k(w) == (0.0, 0.0)
    assert pi_k(w, powers=[1, 1, 1, 0]) == pi_k(v)


def _lattice_reference(u, seed):
    """The lattice at 2^23 evaluations (2^16 points at 128 rotations)."""
    return _mc_abs_product(conditioning._check_psd_and_factor(u),
                           MonteCarloSpec(1 << 23, seed))


def _workload_lams(presets, rng):
    """lam of every preset at k = 4, 5 in the benchmark's three shapes."""
    out = []
    for model in presets.values():
        for k in (4, 5):
            for shape in ("tight", "spread", "two-cluster"):
                x = _shape(rng, k, shape)
                out.append(assemble_context(model, x, cluster_partition(x, 1.0)).lam)
    return out


def test_recursion_agrees_with_the_lattice(presets, sinc, rng):
    # 20 random matrices per k, the benchmark's k = 4, 5 lams, and sinc's
    # tight 5-point lam, whose eigenvalues run from below 1e-18 to 1e-4:
    # within 4 lattice SE at 2^23 evaluations
    cases = [_random_psd(rng, k) for k in (4, 5) for _ in range(20)]
    cases += _workload_lams(presets, rng)
    x = np.linspace(0.0, 0.4, 5)
    tight = assemble_context(sinc, x, cluster_partition(x, 1.0)).lam
    w = np.linalg.eigvalsh(tight)
    assert abs(w[0]) < 1e-15 and w[-1] < 1e-3
    cases.append(tight)
    for n, u in enumerate(cases):
        val, err = pi_k(u)
        ref, se = _lattice_reference(u, seed=n)
        assert 0.0 < err < 1e-5 * val
        assert abs(val - ref) <= 4.0 * se, (n, val, ref, se)


def test_stated_error_covers_twice_the_nodes(presets, sinc, rng, monkeypatch):
    cases = [_random_psd(rng, k) for k in (4, 5) for _ in range(10)]
    cases += _workload_lams(presets, rng)
    x = np.linspace(0.0, 0.4, 5)
    cases.append(assemble_context(sinc, x, cluster_partition(x, 1.0)).lam)
    first = [pi_k(u) for u in cases]
    monkeypatch.setattr(conditioning, "_TS_HALF", 2 * conditioning._TS_HALF)
    conditioning._tanh_sinh.cache_clear()
    try:
        for u, (val, err) in zip(cases, first):
            assert abs(pi_k(u)[0] - val) <= err
    finally:
        monkeypatch.undo()
        conditioning._tanh_sinh.cache_clear()


@st.composite
def _covariances(draw):
    k = draw(st.integers(2, 5))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=k * k, max_size=k * k))
    a = np.array(entries).reshape(k, k) + 0.3 * np.eye(k)
    powers = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return a @ a.T, np.array(powers)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=_covariances(), data=st.data())
def test_recursion_properties(case, data):
    u, p = case
    k = len(p)
    val, err = pi_k(u, powers=p)
    assert val > 0.0 and 0.0 <= err < 1e-8 * val
    # permuting the coordinates permutes nothing in the answer
    perm = np.array(data.draw(st.permutations(range(k))))
    assert pi_k(u[np.ix_(perm, perm)], powers=p[perm])[0] == pytest.approx(val, rel=1e-12)
    # scaling coordinate i by c_i scales the moment by prod |c_i|^p_i
    c = np.array(data.draw(st.lists(st.sampled_from([-3.0, -0.5, 0.25, 2.0, 7.0]),
                                    min_size=k, max_size=k)))
    scaled = pi_k(u * np.outer(c, c), powers=p)[0]
    assert scaled == pytest.approx(val * np.prod(np.abs(c) ** p), rel=1e-12)
    # a block-diagonal covariance gives the product of its blocks, and a
    # coupling of 1e-9 between them moves it by its square only
    if k >= 4:
        cut = data.draw(st.integers(2, k - 2))
        block = np.zeros_like(u)
        block[:cut, :cut], block[cut:, cut:] = u[:cut, :cut], u[cut:, cut:]
        product = pi_k(block[:cut, :cut], powers=p[:cut])[0] * \
            pi_k(block[cut:, cut:], powers=p[cut:])[0]
        assert pi_k(block, powers=p)[0] == pytest.approx(product, rel=1e-12)
        coupled = block.copy()
        coupled[0, -1] = coupled[-1, 0] = 1e-9 * math.sqrt(u[0, 0] * u[-1, -1])
        assert pi_k(coupled, powers=p)[0] == pytest.approx(product, rel=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo blocks on the calling thread
# ---------------------------------------------------------------------------

def _record_mc_calls(monkeypatch):
    """Wrap `_mc_abs_product`; returns the list of (k, control, powers, samples)."""
    calls, original = [], conditioning._mc_abs_product

    def recorder(L, mc, L_control=None, powers=None):
        calls.append((L.shape[0], L_control is not None, powers is not None,
                      mc.samples))
        return original(L, mc, L_control=L_control, powers=powers)
    monkeypatch.setattr(conditioning, "_mc_abs_product", recorder)
    return calls


def test_sampled_answers_keep_their_bits(bf, monkeypatch):
    # only 6 or more coordinates sample: every case here has 6
    odd = MonteCarloSpec(samples=3 * _BLOCK + 12345, seed=8)
    u = 0.6 * np.eye(6) + 0.2 + 0.2 * np.diag(np.linspace(0.0, 1.0, 6))
    calls = _record_mc_calls(monkeypatch)
    # spread: one coupled group, plain Monte Carlo
    r = rho_k(bf, 0.85 * np.arange(6), MonteCarloSpec(seed=6))
    # two clusters: exact groups and a coupling correction
    two = rho_k(bf, [0.0, 0.15, 0.3, 8.0, 8.15, 8.3], MonteCarloSpec(seed=3))
    powered = pi_k(u, MonteCarloSpec(seed=4), [2, 1, 1, 1, 1, 3])
    bits = [float(x).hex() for x in (r.rho, r.n_stderr, two.rho, two.n_stderr,
                                     *powered, *pi_k(u, odd))]
    # as a thread pool that summed the same blocks in block order gave them
    # (numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64, BLAS on 1 or 2 threads)
    assert bits == ["0x1.8c7db4d85f2cbp-16", "0x1.1f89ab6931922p-26",
                    "0x1.27e945970366ap-28", "0x1.c772eaf352e90p-66",
                    "0x1.4b1817d29080dp+0", "0x1.048f959073793p-9",
                    "0x1.43aaba649a184p-2", "0x1.378e983175ad7p-8"]
    # the cases named above all reached the sampler
    assert {k for k, control, powers, n in calls if not control} == {6}
    assert any(control for _, control, _, _ in calls)
    assert any(powers for _, _, powers, _ in calls)
    assert any(math.prod(_budget(n)) != n for *_, n in calls)


def test_public_calls_stay_on_the_main_thread(bf, monkeypatch):
    # the benchmark's span accounting needs every public layer function and
    # every derivs to run on the calling thread; the lattice and the blocks'
    # products run there too
    seen, products, builders = [], set(), set()

    def wrap(fn, name):
        def wrapper(*args, **kwargs):
            seen.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for layer in ("models", "divdiff", "conditioning", "densities",
                  "partitions", "variance", "simulation"):
        mod = sys.modules[f"gausszeros.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = wrap(obj, f"{layer}.{attr}")
    for name, mod in list(sys.modules.items()):
        if name == "gausszeros" or name.startswith("gausszeros."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[obj])
    classes = [models.CorrelationModel]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "derivs" in vars(cls):
            monkeypatch.setattr(cls, "derivs", wrap(vars(cls)["derivs"],
                                                    "models.derivs"))
    build, abs_product = conditioning._build_lattice, conditioning._abs_product

    def product(z):
        products.add(threading.get_ident())
        return abs_product(z)

    def builder(n, k):
        builders.add(threading.get_ident())
        return build(n, k)
    monkeypatch.setattr(conditioning, "_LATTICE", {})
    monkeypatch.setattr(conditioning, "_build_lattice", builder)
    monkeypatch.setattr(conditioning, "_abs_product", product)

    densities.rho_k(bf, 0.85 * np.arange(6))
    names = {name for name, _ in seen}
    assert {"densities.rho_k", "conditioning.pi_k", "models.derivs"} <= names
    assert {ident for _, ident in seen} == {threading.get_ident()}
    assert builders == products == {threading.get_ident()}


def test_sampled_calls_start_no_thread(bf, monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    calls = _record_mc_calls(monkeypatch)
    x = 0.85 * np.arange(6)
    mc = MonteCarloSpec(samples=1 << 15, seed=12)
    assert pi_k(0.7 * np.eye(6) + 0.3, mc)[1] > 0.0
    assert rho_k(bf, x, mc).n_stderr > 0.0
    assert vanishing_constant(bf, x, mc).stderr > 0.0
    clustered = np.array([0.0, 0.15, 0.3, 8.0, 8.15, 8.3])
    densities.clustering_ratio(bf, clustered, cluster_partition(clustered, 1.0), mc)
    assert len(calls) == 4 and {k for k, *_ in calls} == {6}


def test_blocks_in_flight_bound_memory():
    # the one block in flight at k = 6 holds its block-sized temporaries: at
    # most 10 MiB for 2^18 samples
    L = np.linalg.cholesky(0.7 * np.eye(6) + 0.3)
    mc = MonteCarloSpec(samples=1 << 18, seed=7)
    _mc_abs_product(L, mc)  # the lattice is built on first use, not per call
    tracemalloc.start()
    try:
        _mc_abs_product(L, mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20
