import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausszeros.cli import main
from gausszeros.conditioning import MonteCarloSpec, assemble_context
from gausszeros.densities import (clustering_defect, clustering_ratio, rho_k,
                                  rho_with_partition,
                                  vanishing_constant)
from gausszeros.errors import (DegenerateConfiguration, DomainError,
                               OrderUnavailable, SeparationTooSmall)
from gausszeros.models import get_model, tail_norm
from gausszeros.partitions import (IndexPartition, cluster_partition,
                                   enumerate_partitions)

MC = MonteCarloSpec(samples=300_000, seed=13)


def test_rho1_is_inverse_pi(presets):
    for model in presets.values():
        for t in (-3.0, 0.0, 7.0):
            assert abs(rho_k(model, [t]).rho - 1.0 / math.pi) < 1e-12


def test_rho2_independence_limit(bf):
    res = rho_k(bf, [0.0, 10.0])
    assert res.rho == pytest.approx(1.0 / math.pi ** 2, abs=1e-12)


def test_rho2_vanishes_on_diagonal(bf):
    assert rho_k(bf, [0.0, 0.0]).rho == 0.0
    assert rho_k(bf, [1.3, 1.3 + 1e-12]).rho == 0.0  # snapped to the diagonal


def test_rho_point_cap(bf):
    with pytest.raises(OrderUnavailable, match="order 14"):
        rho_k(bf, np.linspace(0, 70, 7))


def test_partition_route_equality(bf, table):
    # the table's internal order cap is 12, too low for its series route:
    # its tight blocks must take the Newton route to agree
    singles = IndexPartition.singletons(2)
    block = IndexPartition.one_block(2)
    for model in (bf, table):
        for z in np.geomspace(1e-3, 5.0, 25):
            a = rho_with_partition(model, [0.0, z], singles)
            b = rho_with_partition(model, [0.0, z], block)
            assert abs(a.rho - b.rho) / b.rho < 1e-8, (model.kind, z)


def test_degenerate_partition_choices(bf):
    with pytest.raises(DegenerateConfiguration):
        rho_with_partition(bf, [0.0, 0.0], IndexPartition.singletons(2))
    res = rho_with_partition(bf, [0.0, 0.0], IndexPartition.one_block(2))
    assert res.rho == 0.0
    assert res.d_value > 0.0 and res.n_value > 0.0


def test_rho_symmetric_under_permutation(bf, rng):
    for _ in range(15):
        x = np.sort(rng.uniform(0.0, 6.0, 3))
        base = rho_k(bf, x, MC)
        perm = rho_k(bf, rng.permutation(x), MC)
        tol = max(1e-8 * base.rho, 4.0 * (base.n_stderr + perm.n_stderr))
        assert abs(base.rho - perm.rho) <= tol
    # two points: both routes closed form, equality is tight
    a = rho_k(bf, [0.4, 2.0]).rho
    b = rho_k(bf, [2.0, 0.4]).rho
    assert a == pytest.approx(b, rel=1e-12)


def test_factorization_identity_for_determinants(bf, rng):
    # the singleton-route determinant equals the blocked determinant times
    # the squared block Vandermonde
    for _ in range(25):
        k = int(rng.integers(2, 5))
        x = np.sort(rng.uniform(0.0, 6.0, k))
        while np.min(np.diff(x)) < 5e-2:
            x = np.sort(rng.uniform(0.0, 6.0, k))
        naive = assemble_context(bf, x, IndexPartition.singletons(k))
        part = cluster_partition(x, float(rng.uniform(0.3, 2.0)))
        blocked = assemble_context(bf, x, part)
        factor = 1.0
        for block in part.blocks:
            pts = x[list(block)]
            for a in range(len(block)):
                for b in range(len(block)):
                    if a != b:
                        factor *= abs(pts[a] - pts[b])
        assert naive.d_value == pytest.approx(factor * blocked.d_value,
                                              rel=1e-8)


def test_factorization_identity_for_numerators(bf):
    # closed-form branch (k = 2): N_singletons = |x1-x0|^2 N_block exactly
    for z in (0.3, 0.9, 1.7):
        naive = rho_with_partition(bf, [0.0, z], IndexPartition.singletons(2))
        blocked = rho_with_partition(bf, [0.0, z], IndexPartition.one_block(2))
        assert naive.n_value == pytest.approx(z * z * blocked.n_value, rel=1e-8)


def test_vanishing_constant_bargmann_fock(bf):
    # conditional-Gaussian oracle: prefactor (0! 1!)/(2! 2!) = 1/4,
    # Var(f, f') = I, Var(f'' | f = f' = 0) = kappa''''(0) - 1 = 2,
    # E|Z|^2 = 2, normalizer (2 pi) => 1/(4 pi)
    res = vanishing_constant(bf, [0.0, 0.0])
    assert res.value == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-6)
    assert res.stderr == 0.0


def test_vanishing_constant_sinc(sinc):
    # same oracle with kappa''''(0) = 9/5: ell = (1/4)(4/5)/(2 pi) = 1/(10 pi)
    res = vanishing_constant(sinc, [0.0, 0.0])
    assert res.value == pytest.approx(1.0 / (10.0 * math.pi), rel=1e-6)
    k4 = sinc.derivs(0.0, 4)[4]
    oracle = 0.25 * (k4 - 1.0) / (2.0 * math.pi)
    assert res.value == pytest.approx(oracle, rel=1e-9)
    assert res.value > 0.0


def test_vanishing_constant_distinct_points_is_rho(bf):
    # gaps >= 1: both take the singleton partition, so one context
    y = [0.0, 1.3, 2.9]
    res = vanishing_constant(bf, y, MC)
    rho = rho_k(bf, y, MC)
    assert res.value == pytest.approx(rho.rho, rel=1e-12)
    assert res.stderr == pytest.approx(rho.n_stderr, rel=1e-12)


def test_vanishing_constant_unequal_blocks(bf):
    # powers (3, 1): the limit of rho over its Vandermonde factor 2 e^3 on
    # a triple that closes up at rate e
    res = vanishing_constant(bf, [0.0, 0.0, 0.0, 1.5], MC)
    assert str(res.partition) == "{0,1,2},{3}"
    e = 1e-3
    part = IndexPartition.from_blocks([(0, 1, 2), (3,)])
    near = rho_with_partition(bf, [0.0, e, 2.0 * e, 1.5], part, MC)
    limit = near.rho / near.vandermonde_factor
    se = math.hypot(res.stderr, near.n_stderr / near.vandermonde_factor)
    assert abs(res.value - limit) <= 4.0 * se + 2.0 * e * res.value


def test_vanishing_constant_point_cap(bf, capsys):
    points = np.linspace(0.0, 70.0, 7)
    for fn in (rho_k, vanishing_constant):
        with pytest.raises(DomainError):
            fn(bf, points)
    for command in ("rho", "vanishing"):
        code = main([command, "--points", ",".join(map(str, points))])
        assert code == 2 and "Traceback" not in capsys.readouterr().err


def test_vanishing_constant_two_far_double_points(bf):
    # clustering: ell([0, 0, d, d]) -> ell([0, 0])^2 = (1/(4 pi))^2 as d grows;
    # at d = 10 the coupling is exp(-50), far below double precision
    res = vanishing_constant(bf, [0.0, 0.0, 10.0, 10.0])
    exact = (1.0 / (4.0 * math.pi)) ** 2
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.stderr <= 1e-9 * res.value


def test_vanishing_order_convergence(bf):
    ell = vanishing_constant(bf, [0.0, 0.0]).value
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        errs.append(abs(rho_k(bf, [0.0, eps]).rho / eps - ell) / ell)
    assert errs[0] > errs[1] > errs[2]
    # observed order >= 1 between successive decades
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0


def test_clustering_ratio_simple_pair(bf):
    ratio, bound = clustering_ratio(bf, [0.0, 8.0], IndexPartition.singletons(2))
    assert abs(ratio - 1.0) < 1e-6
    assert bound > 0.0


def test_clustering_ratio_one_block(bf):
    ratio, bound = clustering_ratio(bf, [0.0, 0.5], IndexPartition.one_block(2))
    assert ratio == 1.0 and bound == 0.0


def test_clustering_ratio_two_pairs(bf):
    part = IndexPartition.from_blocks([(0, 1), (2, 3)])
    ratio, bound = clustering_ratio(bf, [0.0, 0.5, 6.0, 6.5], part)
    assert abs(ratio - 1.0) <= 10.0 * bound


def test_clustering_defect_at_its_sharp_rate(cauchy):
    # cauchy [0, 0.5, t, t + 0.5]: every moment is deterministic, so the
    # defect is resolved to its stated error, and it is quadratic in the
    # correlation across the gap: defect / tail_norm^2 settles near -0.23
    part = IndexPartition.from_blocks([(0, 1), (2, 3)])
    for t in (8.0, 16.0, 32.0, 64.0):
        res = clustering_defect(cauchy, [0.0, 0.5, t, t + 0.5], part)
        assert res.defect == res.ratio - 1.0
        assert 0.0 < res.error < abs(res.defect) / 10.0, t
        scaled = res.defect / tail_norm(cauchy, 4, t - 0.5) ** 2
        assert -0.3 <= scaled <= -0.13, (t, scaled)
        assert (res.ratio, res.bound) == clustering_ratio(
            cauchy, [0.0, 0.5, t, t + 0.5], part)


def test_clustering_separation_guard(bf):
    with pytest.raises(SeparationTooSmall):
        clustering_ratio(bf, [0.0, 0.5, 0.9, 1.4],
                         IndexPartition.from_blocks([(0, 1), (2, 3)]))


def test_bounded_near_diagonal(bf, rng):
    # rho_k(x) <= C prod min(|xi-xj|, 1)^(1/2): calibrate C on a grid, then
    # check random configurations stay below 3x the calibrated maximum
    def ratio(x):
        x = np.asarray(x, dtype=float)
        denom = 1.0
        k = x.size
        for i in range(k):
            for j in range(i + 1, k):
                denom *= min(abs(x[i] - x[j]), 1.0)
        return rho_k(bf, x, MC).rho / math.sqrt(denom)

    calib = max(ratio([0.0, z]) for z in np.geomspace(1e-3, 4.0, 30))
    for _ in range(25):
        k = int(rng.integers(2, 4))
        x = np.sort(rng.uniform(0.0, 5.0, k))
        assert ratio(x) <= 3.0 * calib


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(model=st.sampled_from(["bargmann-fock", "sinc-sqrt3", "cauchy"]),
       points=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=4))
def test_partitions_agree(model, points):
    # every partition that keeps distinct blocks apart gives the same rho
    m = get_model(model)
    mc = MonteCarloSpec(samples=100_000)
    ref = rho_k(m, points, mc)
    for part in enumerate_partitions(len(points)):
        try:
            res = rho_with_partition(m, points, part, mc)
        except DomainError:
            continue
        tol = 4.0 * math.hypot(ref.n_stderr, res.n_stderr) + 1e-8 * abs(ref.rho)
        assert abs(res.rho - ref.rho) <= tol, (str(part), res.rho, ref.rho)
