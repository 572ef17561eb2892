"""The Hermite-cell root kernel against a bisection reference.

`_hermite_roots_batch` polishes each zero by safeguarded Newton steps on
the cell's cubic.  The reference here is the kernel it replaced: 60
bisection halvings, run on every monotone piece of the cubic that changes
sign, so a cell with three roots has three reference roots.

Near a root, the computed cubic has no reliable sign over a band whose
width is set by the rounding error of p over |p'| (or |p''| at a double
root).  Both methods end somewhere inside it, so on drawn cells they agree
to 4 ulps plus that band, which is below an ulp for a well-conditioned
root; on sampled paths they agree to 4 ulps.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausszeros.simulation import (SimulationSpec, _hermite_roots_batch,
                                   _SpectralSampler)

EPS = 2.0 ** -52
TINY = 2.0 ** -1074  # the smallest subnormal


def _cubic(f0, d0, f1, d1, h):
    """(a, b, c, d) of p = a + b t + c t^2 + d t^3, scaled by sign(f0) by
    the same float operations as the kernel."""
    s = np.sign(f0)
    return (s * f0, s * (h * d0), s * (3.0 * (f1 - f0) - h * (2.0 * d0 + d1)),
            s * (-2.0 * (f1 - f0) + h * (d0 + d1)))


def _horner(coef, t):
    a, b, c, d = coef
    return ((d * t + c) * t + b) * t + a


def _bisection(coef, lo, hi, positive_at_lo=True):
    """60 halvings of [lo, hi], keeping the sign change of p inside."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        keep_lo = (_horner(coef, mid) > 0.0) == positive_at_lo
        lo = np.where(keep_lo, mid, lo)
        hi = np.where(keep_lo, hi, mid)
    return 0.5 * (lo + hi)


def _exact(coef, t):
    """p(t) in exact rational arithmetic."""
    a, b, c, d = (Fraction(x) for x in coef)
    t = Fraction(t)
    return a + t * (b + t * (c + t * d))


def _noise(coef, t):
    """Bound on the rounding error of Horner's p(t): gamma_6 < 4 eps, and
    half the smallest subnormal per operation for gradual underflow."""
    a, b, c, d = coef
    t = abs(t)
    return (4.0 * EPS * (abs(a) + abs(b) * t + abs(c) * t * t + abs(d) * t ** 3)
            + 3.0 * TINY)


def _slope(coef, t):
    a, b, c, d = coef
    return abs(b + 2.0 * c * t + 3.0 * d * t * t)


def _reference_roots(coef):
    """Roots of p in and next to [0, 1], as 60 bisection halvings find them.

    The knots are 0, 1, the critical points and, so that a root just past
    an end is listed too, -1 and 2.  Each piece between knots over which
    the exact p changes sign is bisected on computed values; a critical
    point where |p| is at rounding level is a double root to working
    precision and is listed as it is.
    """
    a, b, c, d = coef
    crit = [float(r.real) for r in np.roots([3.0 * d, 2.0 * c, b])
            if r.imag == 0 and -1.0 < r.real < 2.0]
    knots = sorted({-1.0, 0.0, 1.0, 2.0, *crit})
    signs = [_exact(coef, u) > 0 for u in knots]
    roots = [float(_bisection(coef, u, v, su))
             for u, v, su, sv in zip(knots[:-1], knots[1:], signs[:-1], signs[1:])
             if su != sv]
    return roots + [u for u in crit if abs(_exact(coef, u)) <= _noise(coef, u)]


def _band(coef, r):
    """Half-width of the band around the root r where the computed p has no
    reliable sign: |p'| w + |p''| w^2 / 2 reaches twice Horner's bound."""
    a, b, c, d = coef
    slope, curv = _slope(coef, r), abs(c + 3.0 * d * r)
    err = 2.0 * _noise(coef, r)
    return 2.0 * err / (slope + math.sqrt(slope * slope + 4.0 * curv * err))


def _ulps4(t):
    # 60 halvings of [0, 1] resolve 2^-61: one ulp at 2^-8
    return 4.0 * float(np.spacing(max(abs(t), 2.0 ** -8)))


def _cell(p, h):
    """The Hermite cell (f0, d0, f1, d1, h) of the polynomial p in t."""
    dp = p.deriv()
    return float(p(0.0)), float(dp(0.0)) / h, float(p(1.0)), \
        float(dp(1.0)) / h, h


_steps = st.sampled_from([0.05, 0.02, 0.01, 1.0])
_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_scale = st.floats(-30.0, 30.0).filter(lambda k: abs(k) > 1e-3)
_slopes = st.floats(-30.0, 30.0)  # h f' at a node


@st.composite
def _generic(draw):
    # any bracket: opposite end values, free end slopes (one or three roots)
    f0 = draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    f1 = -math.copysign(draw(st.floats(1e-3, 1.0)), f0)
    h = draw(_steps)
    return f0, draw(_slopes) / h, f1, draw(_slopes) / h, h


@st.composite
def _three_roots(draw):
    roots = sorted(draw(st.lists(_unit, min_size=3, max_size=3, unique=True)))
    if draw(st.booleans()):
        # a near-double pair: two roots 1e-6..1e-3 apart
        gap = 10.0 ** draw(st.floats(-6.0, -3.0))
        roots = [0.2, 0.2 + gap, 0.7] if roots[0] + gap >= roots[2] \
            else [roots[0], roots[0] + gap, roots[2]]
    p = np.polynomial.Polynomial.fromroots(roots) * draw(_scale)
    return _cell(p, draw(_steps))


@st.composite
def _edge_root(draw):
    # one real root within ulps of 0 or of 1, and a complex pair
    j = draw(st.integers(1, 64))
    r = j * EPS if draw(st.booleans()) else 1.0 - j * EPS / 2
    q = draw(st.floats(0.05, 4.0))
    p = np.polynomial.Polynomial([-r * q, q, -r, 1.0]) * draw(_scale)
    return _cell(p, draw(_steps))


@st.composite
def _tiny_end(draw):
    # an end value near 1e-300: a root that close to the node, on either
    # side of it
    tiny = draw(st.floats(1.0, 10.0)) * 1e-300
    big = draw(st.floats(1e-3, 1.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    h = draw(_steps)
    d0, d1 = draw(_slopes) / h, draw(_slopes) / h
    if draw(st.booleans()):
        return sign * tiny, d0, -sign * big, d1, h
    return sign * big, d0, -sign * tiny, d1, h


@st.composite
def _flat_secant(draw):
    # p'(1/4) = 0 exactly at the secant point a / (a - p(1)) = 1/4: in
    # dyadic numbers with h = 1, every coefficient is exact
    a = 2.0 ** draw(st.integers(-20, 20))
    d = draw(st.integers(-64, 64)) * a / 8
    c = -8.0 * a - 13.0 * d / 8
    b = -c / 2 - 3.0 * d / 16
    s = draw(st.sampled_from([-1.0, 1.0]))
    return s * a, s * b, s * -3.0 * a, s * (b + 2.0 * c + 3.0 * d), 1.0


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(cell=st.one_of(_generic(), _three_roots(), _edge_root(), _tiny_end(),
                      _flat_secant()))
def test_roots_match_bisection(cell):
    f0, d0, f1, d1, h = cell
    assume(f0 * f1 < 0.0)  # a bracket, as the sampler's sign test gives
    (t,) = _hermite_roots_batch(*(np.array([v]) for v in (f0, d0, f1, d1)), h)
    t = float(t)
    coef = _cubic(f0, d0, f1, d1, h)
    assert 0.0 <= t <= 1.0
    # |p(t)| at rounding level: Horner's error, plus p's change over 4 ulps
    assert abs(_exact(coef, t)) <= \
        _noise(coef, t) + 4.0 * float(np.spacing(t)) * _slope(coef, t)
    refs = _reference_roots(coef)
    assert any(abs(t - r) <= _ulps4(r) + _band(coef, r) for r in refs), \
        (t, refs)


def test_sampled_roots_within_4_ulps(presets):
    # real brackets: smooth paths on the default step, every root kept
    for seed, model in enumerate(presets.values()):
        # 96 replicates give ~1530 +- 35 brackets: 15 SD above the guard
        spec = SimulationSpec(window_length=50.0, num_samples=96,
                              master_seed=seed)
        f, fp = _SpectralSampler(model, spec).sample(seed, range(48))
        rows, cols = np.nonzero(f[:, :-1] * f[:, 1:] < 0.0)
        cell = (f[rows, cols], fp[rows, cols], f[rows, cols + 1],
                fp[rows, cols + 1], spec.grid_step)
        t = _hermite_roots_batch(*cell)
        ref = _bisection(_cubic(*cell), np.zeros_like(t), np.ones_like(t))
        ulps4 = 4.0 * np.spacing(np.maximum(ref, 2.0 ** -8))
        assert rows.size > 1000 and np.all(np.abs(t - ref) <= ulps4)


def test_flat_secant_example():
    # p = 1 + 4 t - 8 t^2: secant point 1/4, where p' = 0; root (1 + sqrt 3) / 4
    (t,) = _hermite_roots_batch(np.array([1.0]), np.array([4.0]),
                                np.array([-3.0]), np.array([-12.0]), 1.0)
    assert abs(t - (1.0 + math.sqrt(3.0)) / 4.0) <= 2 * EPS


def test_tiny_end_keeps_the_crossing():
    # p(1) = -1e-300 is far below the rounding of the cubic in powers of t
    # there, which sums O(1) terms; the crossing is the root of
    # 2.05 t^2 - t - 1, not the node
    (t,) = _hermite_roots_batch(np.array([-1.0]), np.array([0.0]),
                                np.array([1e-300]), np.array([-1.0]), 0.05)
    assert abs(t - (1.0 + math.sqrt(9.2)) / 4.1) <= 1e-15
