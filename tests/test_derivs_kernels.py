"""The one-pass `derivs` kernels against the per-order loops they replaced.

Sinc, Bargmann-Fock and spectral-table models evaluate every derivative
order in one pass over tables built at construction.  The references here
are the per-order evaluations those passes replaced: a 60-term series and
a Leibniz sum for each sinc order, one `polyval` per Hermite order, and for
a table one quadrature sum per point and order on that point's own nodes
(the panels of the top of its octave of |x| + 1).  The kernels repeat the
same floating-point operations in the same order, so the outputs must
agree bit for bit, also in the sign of zero.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from gausszeros.models import BargmannFockModel, SincModel

SQRT3 = math.sqrt(3.0)
TINY = 2.0 ** -1074  # the smallest subnormal


# ---------------------------------------------------------------------------
# references: the per-order loops
# ---------------------------------------------------------------------------

def _sinc_series(u, j, scale):
    k0 = (j + 1) // 2
    acc = np.zeros_like(u)
    upow = u ** (2 * k0 - j)
    u2 = u * u
    for k in range(k0, k0 + 60):
        fact = math.factorial(2 * k - j)
        coeff = (-1.0) ** k * scale / ((2 * k + 1) * fact)
        acc = acc + coeff * upow
        upow = upow * u2
    return acc


def _sinc_closed(u, j):
    acc = np.zeros_like(u)
    inv = 1.0 / u
    for m in range(j + 1):
        c = math.comb(j, m) * (-1.0) ** (j - m) * math.factorial(j - m)
        acc = acc + c * np.sin(u + 0.5 * math.pi * m) * inv ** (j - m + 1)
    return acc


def sinc_reference(x, max_order):
    u = SQRT3 * np.asarray(x, dtype=float)
    out = np.empty((max_order + 1, u.size))
    for j in range(max_order + 1):
        scale = float(3.0 ** (j // 2)) * (SQRT3 if j % 2 else 1.0)
        small = np.abs(u) < max(0.5, 0.3 * j)
        col = np.empty_like(u)
        if np.any(small):
            col[small] = _sinc_series(u[small], j, scale)
        if np.any(~small):
            col[~small] = scale * _sinc_closed(u[~small], j)
        out[j] = col
    return out


def sinc_one_minus_kappa_reference(x):
    u = SQRT3 * np.asarray(x, dtype=float)
    out = np.empty_like(u)
    small = np.abs(u) < 1.0
    if np.any(small):
        us = u[small]
        acc = np.zeros_like(us)
        term = us * us
        u2 = us * us
        for k in range(1, 20):
            acc = acc + (-1.0) ** (k + 1) * term / math.factorial(2 * k + 1)
            term = term * u2
        out[small] = acc
    if np.any(~small):
        ul = u[~small]
        out[~small] = 1.0 - np.sin(ul) / ul
    return out


def _hermite_rows(cap):
    rows = [np.array([1.0]), np.array([0.0, 1.0])]
    for j in range(2, cap + 1):
        nxt = np.zeros(j + 1)
        nxt[1:] += rows[-1]
        nxt[: j - 1] -= (j - 1) * rows[-2]
        rows.append(nxt)
    return rows


HERMITE = _hermite_rows(BargmannFockModel.internal_order_cap)


def bargmann_fock_reference(x, max_order):
    xb = np.minimum(np.maximum(np.asarray(x, dtype=float), -40.0), 40.0)
    gauss = np.exp(-0.5 * xb * xb)
    out = np.empty((max_order + 1, xb.size))
    for j in range(max_order + 1):
        sign = -1.0 if j % 2 else 1.0
        out[j] = sign * npoly.polyval(xb, HERMITE[j]) * gauss
    return out


def octave_top(xv):
    """2^e - 1 for the octave 2^(e-1) < |x| + 1 <= 2^e."""
    top = 1.0
    while top < abs(xv) + 1.0:
        top *= 2.0
    return top - 1.0


def table_reference(model, x, max_order, rule=octave_top):
    """Per-point, per-order sums on the panels for rule(x)."""
    out = np.zeros((max_order + 1, len(x)))
    for col, xv in enumerate(x):
        if abs(xv) > model._x_far:
            continue
        nodes, weights = model._panels_for(rule(xv))
        dens = weights * model._density.density(nodes)
        cos_part = np.cos(xv * nodes)
        sin_part = np.sin(xv * nodes)
        for j in range(max_order + 1):
            m, odd = divmod(j, 2)
            trig = sin_part if odd else cos_part
            sign = (-1.0) ** (m + odd)
            out[j, col] = sign * 2.0 * np.sum(dens * nodes ** j * trig)
    return out


def assert_same_bits(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    diff = got.view(np.int64) != want.view(np.int64)
    if diff.any():
        idx = tuple(int(i[0]) for i in np.nonzero(diff))
        raise AssertionError(f"{what}: {got[idx]!r} != {want[idx]!r} at {idx}")


# ---------------------------------------------------------------------------
# the drawn arguments
# ---------------------------------------------------------------------------

def _beside(edge):
    """Floats on both sides of edge: its neighbours and relative offsets."""
    return st.one_of(
        st.integers(-3, 3).map(lambda n: edge + n * math.ulp(edge)),
        st.floats(-1e-2, 1e-2).map(lambda r: edge * (1.0 + r)),
    )


SINC_CUTS = sorted({max(0.5, 0.3 * j) / SQRT3
                    for j in range(SincModel.internal_order_cap + 1)}
                   | {1.0 / SQRT3})  # one_minus_kappa switches at |u| = 1
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, TINY, 2.0 ** -1022, 3e-320]),
    st.floats(TINY, 2.0 ** -1022),                       # subnormals
    st.floats(-300.0, -3.0).map(lambda e: 10.0 ** e),    # 1e-300 .. 1e-3
    st.sampled_from(SINC_CUTS).flatmap(_beside),         # every sinc cut
    _beside(40.0),                                       # the Bargmann-Fock clamp
    st.floats(0.0, 15.0),
    st.floats(0.0, 4.0).map(lambda e: 10.0 ** e),        # |x| up to 1e4
)
SIGNED = st.tuples(MAGNITUDES, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
ARGS = st.lists(SIGNED, min_size=1, max_size=40)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ARGS)
def test_sinc_derivs_bits(sinc, xs):
    want = sinc_reference(xs, sinc.internal_order_cap)
    for top in range(sinc.internal_order_cap + 1):
        assert_same_bits(sinc.derivs(np.array(xs), top), want[: top + 1],
                         f"sinc order {top}")
    assert_same_bits(sinc.derivs(xs[0], 2), want[:3, 0], "sinc scalar")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ARGS)
def test_sinc_one_minus_kappa_bits(sinc, xs):
    assert_same_bits(sinc.one_minus_kappa(np.array(xs)),
                     sinc_one_minus_kappa_reference(xs), "sinc 1 - kappa")
    assert_same_bits(sinc.one_minus_kappa(xs[0]),
                     sinc_one_minus_kappa_reference(xs[:1])[0], "scalar")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ARGS)
def test_bargmann_fock_derivs_bits(bf, xs):
    want = bargmann_fock_reference(xs, bf.internal_order_cap)
    for top in range(bf.internal_order_cap + 1):
        assert_same_bits(bf.derivs(np.array(xs), top), want[: top + 1],
                         f"bargmann-fock order {top}")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, TINY]),
                          st.floats(-30.0, 30.0)), min_size=1, max_size=6))
def test_table_derivs_bits(table, xs):
    want = table_reference(table, xs, table.internal_order_cap)
    for top in range(table.internal_order_cap + 1):
        assert_same_bits(table.derivs(np.array(xs), top), want[: top + 1],
                         f"table order {top}")


def test_long_calls_split_into_blocks(sinc, bf, table):
    # more points than one block holds at the top orders, spanning every
    # rule; the blocks must not change a bit
    x = np.concatenate([np.linspace(-8.0, 8.0, 701), [0.0, -0.0, TINY, 1e4]])
    for top in (0, 2, 12, 40):
        assert_same_bits(sinc.derivs(x, top), sinc_reference(x, top),
                         f"sinc order {top}")
    assert_same_bits(bf.derivs(x, 48), bargmann_fock_reference(x, 48),
                     "bargmann-fock")
    # far table points: a quarter million nodes each in one octave, so the
    # three cross _BLOCK and split into blocks of two points and one
    far = [2000.0, -2000.0, 1500.0]
    assert 3 * table._panels_for(octave_top(far[0]))[0].size > table._BLOCK
    top = table.internal_order_cap
    assert_same_bits(table.derivs(np.array(far), top),
                     table_reference(table, far, top), "far table points")


ACCURACY_POINTS = [0.0, TINY, -TINY, 1e-6, 0.3, 2.5, 10.0, 37.0, 100.0, 2000.0]


def _fine(xv):
    return 8.0 * (abs(xv) + 1.0)


def test_table_octave_nodes_keep_accuracy(table, monkeypatch):
    # Against each point's sum on the panels for 8 (|x| + 1), the octave
    # nodes may add at most 1e-15 of an order's largest |value| to the
    # error of the per-point nodes they replaced.  At x = 2000 both errors
    # are the rounding noise of ~250 000 double nodes (1.1e-15 and 2.2e-15;
    # summed in long double on the same nodes they stay the same), and
    # 2e-15 is allowed there.
    top = table.internal_order_cap
    got = table.derivs(np.array(ACCURACY_POINTS), top)
    for col, xv in enumerate(ACCURACY_POINTS):
        assert_same_bits(table.derivs(xv, top), got[:, col], f"single {xv}")
    per_point = table_reference(table, ACCURACY_POINTS, top, rule=abs)
    monkeypatch.setattr(table, "_NODE_BUDGET", 1 << 22)  # 2e6 nodes at 2000
    fine = table_reference(table, ACCURACY_POINTS, top, rule=_fine)
    scale = np.abs(fine).max(axis=1, keepdims=True)
    excess = (np.abs(got - fine) - np.abs(per_point - fine)) / scale
    margin = np.where(np.abs(ACCURACY_POINTS) > 100.0, 2e-15, 1e-15)
    worst = np.unravel_index(np.argmax(excess - margin), excess.shape)
    assert np.all(excess <= margin), (
        f"order {worst[0]} at x = {ACCURACY_POINTS[worst[1]]}: "
        f"{excess[worst]:.3g} over the per-point nodes' error")


def test_table_one_minus_kappa_accuracy_and_bits(table):
    for xv in (1e-6, 1e-3, 0.3):
        nodes, weights = table._panels_for(_fine(xv))
        dens = weights * table._density.density(nodes)
        want = 4.0 * np.sum(dens * np.sin(0.5 * xv * nodes) ** 2)
        assert abs(table.one_minus_kappa(xv) - want) <= 1e-13 * want, xv
    xs = ACCURACY_POINTS + [-0.3, 50.0, -2000.0, 1e20]
    got = table.one_minus_kappa(np.array(xs))
    for col, xv in enumerate(xs):
        assert_same_bits(table.one_minus_kappa(xv), got[col], f"1 - kappa at {xv}")
