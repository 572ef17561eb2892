import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.linalg import solve_triangular

import dd_properties
from gausszeros import densities, divdiff
from gausszeros.conditioning import MonteCarloSpec
from gausszeros.densities import rho_k
from gausszeros.divdiff import (_INV_FACT, SNAP_TOL, TAYLOR_SPAN,
                                _block_covariance, _forward_solve,
                                _newton_rows, _taylor_rows,
                                divided_diff_vector, double_divided_diff,
                                multiplicities, newton_matrix,
                                snap_configuration)
from gausszeros.errors import OrderUnavailable
from gausszeros.partitions import cluster_partition


def test_multiplicities_examples():
    np.testing.assert_array_equal(multiplicities([0.0, 1.0, 0.0]), [0, 0, 1])
    np.testing.assert_array_equal(multiplicities([0.5, 1.5, 2.5]), [0, 0, 0])
    np.testing.assert_array_equal(multiplicities([2.0, 2.0, 2.0]), [0, 1, 2])


def test_snap_merges_near_ties():
    x = snap_configuration([0.0, 1.0, 1e-12])
    assert x[0] == x[2] == 0.0
    np.testing.assert_array_equal(multiplicities([0.0, 1.0, 1e-12]), [0, 0, 1])


def test_snap_boundary_examples():
    # a gap of exactly SNAP_TOL stays, the float just below it merges
    below = math.nextafter(SNAP_TOL, 0.0)
    np.testing.assert_array_equal(snap_configuration([0.0, SNAP_TOL]),
                                  [0.0, SNAP_TOL])
    np.testing.assert_array_equal(snap_configuration([0.0, below]), [0.0, 0.0])
    # chains are transitive: three nodes spanning more than SNAP_TOL merge
    np.testing.assert_array_equal(
        snap_configuration([1.2e-10, 0.0, 0.6e-10]), [1.2e-10] * 3)
    # the earliest index wins, not the smallest value
    np.testing.assert_array_equal(snap_configuration([1e-11, 0.0, 5.0]),
                                  [1e-11, 1e-11, 5.0])


_SNAP_GAPS = st.sampled_from([0.0, 0.3 * SNAP_TOL, math.nextafter(SNAP_TOL, 0.0),
                              SNAP_TOL, math.nextafter(SNAP_TOL, 1.0),
                              2.0 * SNAP_TOL, 0.4])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from([0.0, 1e-3, -1.0, 7.25]),
       gaps=st.lists(_SNAP_GAPS, min_size=0, max_size=7), data=st.data())
def test_snap_chains_gaps_below_tol(base, gaps, data):
    xs = base + np.cumsum([0.0] + gaps)
    perm = data.draw(st.permutations(range(xs.size)))
    x = xs[list(perm)]
    out = snap_configuration(x)
    # chains: runs of the sorted nodes whose computed gaps are < SNAP_TOL
    order = np.argsort(x, kind="stable")
    chain = np.cumsum(np.r_[0, np.diff(x[order]) >= SNAP_TOL])
    owner = np.empty(x.size, dtype=int)
    owner[order] = chain
    for i in range(x.size):
        earliest = np.flatnonzero(owner == owner[i])[0]
        assert out[i] == x[earliest]
    # the input is left alone
    np.testing.assert_array_equal(x, xs[list(perm)])


def test_newton_matrix_two_points():
    x1, x2 = 0.3, 1.7
    np.testing.assert_allclose(newton_matrix([x1, x2]),
                               [[1.0, 0.0], [1.0, x2 - x1]])


def test_newton_matrix_repeated_is_identity():
    np.testing.assert_array_equal(newton_matrix([2.0] * 4), np.eye(4))


def test_newton_matrix_013():
    # third row evaluates (1, X, X(X-1)) at 3
    m = newton_matrix([0.0, 1.0, 3.0])
    np.testing.assert_allclose(m[2], [1.0, 3.0, 6.0])


def test_divided_diff_first_order():
    a, b = 0.2, 1.1
    f = lambda t: math.sin(t)
    out = divided_diff_vector([a, b], [f(a), f(b)])
    np.testing.assert_allclose(out, [f(a), (f(b) - f(a)) / (b - a)])


def test_divided_diff_taylor_case():
    # repeated configuration: divided differences are Taylor coefficients
    z = 0.7
    poly = Polynomial([1.0, -2.0, 0.5, 3.0])
    evals = [poly.deriv(j)(z) / math.factorial(j) for j in range(4)]
    out = divided_diff_vector([z] * 4, evals)
    np.testing.assert_allclose(out, evals, rtol=1e-14)


def test_divided_diff_leading_coefficient():
    for p in (2, 3, 5):
        pts = np.linspace(-1.0, 2.0, p)
        evals = pts ** (p - 1)
        out = divided_diff_vector(pts, evals)
        assert out[-1] == pytest.approx(1.0, rel=1e-10)


def test_double_diff_order_one(bf):
    x, y = 0.4, 1.9
    assert double_divided_diff(bf, [x], [y]) == pytest.approx(
        bf.kappa(y - x), rel=1e-14)


def test_double_diff_first_quotient(bf):
    x = np.array([0.2, 0.9])
    y = 1.5
    expect = (bf.kappa(y - x[1]) - bf.kappa(y - x[0])) / (x[1] - x[0])
    assert double_divided_diff(bf, x, [y]) == pytest.approx(expect, rel=1e-12)


def test_double_diff_rolle_bound(bf, rng):
    for _ in range(50):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        x = np.sort(rng.uniform(-2.0, 2.0, k))
        y = np.sort(rng.uniform(-2.0, 2.0, l))
        val = abs(double_divided_diff(bf, x, y))
        lo, hi = y.min() - x.max(), y.max() - x.min()
        grid = np.linspace(lo, hi, 801)
        bound = np.max(np.abs(bf.derivs(grid, k + l - 2)[k + l - 2]))
        assert val <= bound * (1 + 1e-9) + 1e-12


def test_double_diff_order_cap(bf):
    with pytest.raises(OrderUnavailable):
        _block_covariance(bf, [np.zeros(8), np.zeros(8)])
    # the one-node extensions do not count: seven coincident nodes fit
    assert np.isfinite(double_divided_diff(bf, np.zeros(7), [1.0]))


def test_taylor_and_value_paths_agree(presets, rng):
    # overlap region: spans moderate enough for both branches
    for model in presets.values():
        for _ in range(30):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 4))
            x = rng.uniform(0.0, 0.55, k)
            y = rng.uniform(0.0, 0.55, l) + rng.uniform(0.0, 4.0)
            x.sort(); y.sort()
            taylor, direct, tail, _ = dd_properties.route_matrices(model, x, y)
            # the series converges within the model's orders
            assert np.all(tail <= 1e-13 * np.abs(taylor).max())
            gap = np.min(np.abs(np.subtract.outer(x, x)) + np.eye(k))
            if gap > 0.05:  # value route only reliable with open gaps
                np.testing.assert_allclose(taylor, direct, rtol=1e-7, atol=1e-9)


def test_property_suite_small(bf):
    worst = dd_properties.run_all(bf, seed=7, n_cases=120)
    assert worst["permutation"] < 1e-10
    assert worst["recursion"] < 1e-10
    assert worst["rolle"] <= 0.0
    assert worst["continuity"] < 0.05  # two eps decades shrink the gap 20x+
    assert worst["double_symmetry"] < 1e-10


def _newton_matrix_loop(x):
    # the former Polynomial-product construction, kept as the reference
    c = multiplicities(x)
    m = np.zeros((x.size, x.size))
    poly = Polynomial([1.0])
    for j in range(x.size):
        for i in range(j, x.size):
            if c[i] <= j:
                m[i, j] = poly.deriv(c[i])(x[i]) / math.factorial(c[i])
        poly = poly * Polynomial([-x[j], 1.0])
    return m


def _newton_rows_per_extension(z):
    # the former construction, kept as the reference: one Newton matrix of
    # its own for each one-node extension, read off its bordering row
    s = z.size
    orders = np.concatenate([multiplicities(z), (z[:, None] == z).sum(axis=1)])
    rows = np.zeros((2 * s, 2 * s))
    rows[:s, :s] = _forward_solve(newton_matrix(z), np.eye(s))
    for a in range(s):
        border = newton_matrix(np.append(z, z[a]))[s]
        rows[s + a, :s] = -(border[:s] @ rows[:s, :s]) / border[s]
        rows[s + a, s + a] = 1.0 / border[s]
    return rows * _INV_FACT[orders], np.concatenate([z, z]), orders


def _assert_same_rows(z):
    for got, ref in zip(_newton_rows(z), _newton_rows_per_extension(z)):
        assert got.dtype.kind == ref.dtype.kind
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("z", [[0.0, 0.0, 0.2, 0.2, 0.2],
                               [0.0, 3e-9, 0.3, 1.0],
                               [0.0, 0.7, 1.9, 3.2, 4.0]],
                         ids=["confluent", "near-tie", "spread"])
def test_newton_extension_rows_invert_the_extended_matrix(z):
    z = np.array(z)
    s = z.size
    _assert_same_rows(z)
    rows, _, orders = _newton_rows(z)
    for a in range(s):
        ext = np.append(z, z[a])
        ref = np.zeros(2 * s)
        inv = solve_triangular(newton_matrix(ext), np.eye(s + 1), lower=True)[s]
        ref[:s], ref[s + a] = inv[:s], inv[s]
        ref *= _INV_FACT[orders]
        assert np.max(np.abs(rows[s + a] - ref)) <= 1e-13 * np.max(np.abs(ref)), a


def test_newton_rows_match_per_extension_matrices(rng):
    for _ in range(200):
        s = int(rng.integers(1, 8))
        z = snap_configuration(rng.choice(rng.uniform(0.0, 2.0, 4), s)
                               + rng.choice([0.0, 3e-9, 0.3], s))
        _assert_same_rows(z - z.min())


def test_rho_k_snaps_once(monkeypatch, bf):
    # rho_k's snap, its scale-1 partition and assemble_context's snap; the
    # private Newton rows find ties by equality and never snap again
    calls = []

    def counted(x, eta):
        calls.append(eta)
        return cluster_partition(x, eta)
    for module in (divdiff, densities):
        monkeypatch.setattr(module, "cluster_partition", counted)
    rho_k(bf, np.linspace(0.0, 0.5, 6), MonteCarloSpec(samples=64))
    assert len(calls) == 3


@pytest.mark.parametrize("z", [[0.3], [0.0, 0.0, 0.0]], ids=["one-point", "coincident"])
def test_span_zero_block_builds_no_series(monkeypatch, bf, z):
    series = []

    def taylor_rows(z, cap):
        series.append(z.size)
        return _taylor_rows(z, cap)
    monkeypatch.setattr(divdiff, "_taylor_rows", taylor_rows)
    _, routes = _block_covariance(bf, [np.array(z)])
    assert routes == ("newton",) and series == []
    _block_covariance(bf, [np.array([0.0, 0.3])])  # a tight block has a choice
    assert series == [2]


def test_newton_matrix_matches_polynomial_products(rng):
    for _ in range(200):
        p = int(rng.integers(1, 8))
        x = snap_configuration(rng.choice(rng.uniform(-2.0, 2.0, 4), p))
        ref = _newton_matrix_loop(x)
        np.testing.assert_allclose(newton_matrix(x), ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["bargmann-fock", "sinc-sqrt3", "cauchy"]),
       l=st.integers(1, 3),
       span=st.floats(TAYLOR_SPAN - 0.1, TAYLOR_SPAN + 0.1),
       gap=st.floats(-2.0, 2.0).map(lambda e: SNAP_TOL * 10.0 ** e),
       lag=st.floats(0.0, 4.0), inner=st.floats(0.0, 1.0))
def test_taylor_and_newton_rows_agree(presets, name, l, span, gap, lag, inner):
    # a near-tie of either side of SNAP_TOL inside a block of either side
    # of TAYLOR_SPAN: the two routes agree within their own error estimates
    model = presets[name]
    x = snap_configuration([0.0, gap, span])
    y = lag + np.array([0.0, inner * span, span])[:l]
    taylor, newton, tail, rounding = dd_properties.route_matrices(model, x, y)
    assert np.abs(taylor - newton).max() <= 16.0 * (tail + rounding).max()
