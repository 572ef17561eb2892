"""Two-point excess intensity, variance growth constant, covariance predictor.

The two-point excess F(z) = rho_2(0, z) - 1/pi^2 has the closed form

    F(z) = pi^-2 [ (1 - k^2 - k'^2) / (1 - k^2)^(3/2) * h(a) - 1 ],
    h(a) = sqrt(1 - a^2) + a asin(a),
    a(z) = (k k'^2 - k^2 k'' + k'') / (1 - k^2 - k'^2),

with k = kappa(z) etc.  The number variance of zeros grows like R sigma^2
with sigma^2 = 1/pi + 2 int_0^inf F, and the exact finite-R covariance of
two linear statistics is an F-weighted cross-correlation plus a diagonal
term R/pi * int phi1 phi2, both certified integrals (adaptive Gauss-Kronrod
panels plus an F tail bound).  sigma^2's lower bound, its second-chaos term
(1/pi) int (1 - xi^2)^2 g^2, is in closed form (`second_chaos_mass`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NearSingular, QuadratureNotConverged
from .models import CorrelationModel, QuadratureSpec

__all__ = [
    "QuadratureSpec",
    "TestFunction",
    "two_point_F",
    "sigma_squared",
    "sigma_lower_bound",
    "predicted_covariance",
    "expected_linear_statistic",
]

_NEAR_ZERO = 1e-4
_MAX_PANELS = 200  # refinement stops at this many times the first panel count
_INV_PI2 = 1.0 / math.pi ** 2
_erf = np.vectorize(math.erf, otypes=[float])


def _require_scale(name: str, value: float):
    """Refuse a scale (R, epsilon, sigma) that is not finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Integrable bounded test function with closed-form cross-correlations.

    kinds: indicator(a, b) -> 1 on [a, b];
           gaussian(center, width) -> exp(-(x-center)^2 / (2 width^2));
           table(xs, ys) -> linear interpolation, zero outside the grid.
    """

    __test__ = False  # not a pytest class, despite the name

    kind: str
    params: tuple

    @classmethod
    def indicator(cls, a: float, b: float) -> "TestFunction":
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise ConfigError("indicator needs finite a < b")
        return cls("indicator", (a, b))

    @classmethod
    def gaussian(cls, center: float, width: float) -> "TestFunction":
        center, width = float(center), float(width)
        if not (math.isfinite(center) and 0 < width < math.inf):
            raise ConfigError("gaussian needs a finite center and width > 0")
        return cls("gaussian", (center, width))

    @classmethod
    def table(cls, xs, ys) -> "TestFunction":
        xs = tuple(float(v) for v in xs)
        ys = tuple(float(v) for v in ys)
        if len(xs) != len(ys) or len(xs) < 2 or any(b <= a for a, b in zip(
                xs[:-1], xs[1:])) or not np.isfinite(xs + ys).all():
            raise ConfigError("table needs finite increasing xs, matching ys")
        return cls("table", (xs, ys))

    @classmethod
    def from_spec(cls, text: str) -> "TestFunction":
        """Parse CLI syntax: indicator:0,1 | gaussian:0,1 | table:path.json."""
        name, _, arg = text.replace("(", ":").rstrip(")").partition(":")
        if name not in ("indicator", "gaussian", "table"):
            raise ConfigError(f"unknown test function {text!r}")
        try:
            if name != "table":
                return getattr(cls, name)(*map(float, arg.split(",")))
            with open(arg) as fh:
                doc = json.load(fh)
            return cls.table(doc["xs"], doc["ys"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"cannot parse test function {text!r}: "
                              f"{exc!r}") from exc

    # -- evaluation -------------------------------------------------------
    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "indicator":
            a, b = self.params
            return ((x >= a) & (x <= b)).astype(float)
        if self.kind == "gaussian":
            c, w = self.params
            return np.exp(-0.5 * ((x - c) / w) ** 2)
        xs, ys = self.params
        return np.interp(x, xs, ys, left=0.0, right=0.0)

    # -- integral functionals ----------------------------------------------
    def integral(self) -> float:
        if self.kind == "indicator":
            a, b = self.params
            return b - a
        if self.kind == "gaussian":
            _, w = self.params
            return w * math.sqrt(2.0 * math.pi)
        xs, ys = self.params
        return float(np.trapezoid(ys, xs))

    def l2_norm_sq(self) -> float:
        if self.kind == "indicator":
            a, b = self.params
            return b - a
        if self.kind == "gaussian":
            _, w = self.params
            return w * math.sqrt(math.pi)
        xs, ys = self.params
        grid = np.linspace(xs[0], xs[-1], 4097)
        return float(np.trapezoid(self(grid) ** 2, grid))

    def sup_bound(self) -> float:
        if self.kind in ("indicator", "gaussian"):
            return 1.0
        _, ys = self.params
        return float(np.max(np.abs(ys)))

    def support(self) -> tuple[float, float]:
        """Interval carrying (numerically) all the mass; a gaussian's reaches
        9 widths from its center, a table's runs between the grid points
        next to its outermost non-zero values (its grid ends if all are 0)."""
        if self.kind == "indicator":
            return self.params
        if self.kind == "gaussian":
            c, w = self.params
            return c - 9.0 * w, c + 9.0 * w
        xs, ys = self.params
        mass = np.flatnonzero(ys)
        if mass.size == 0:
            return xs[0], xs[-1]
        return xs[max(mass[0] - 1, 0)], xs[min(mass[-1] + 1, len(xs) - 1)]

    def support_radius(self) -> float:
        """Largest |x| carrying (numerically) non-negligible mass."""
        return max(abs(t) for t in self.support())

    def cross_correlation(self, other: "TestFunction", u):
        """int phi(x) * other(x + u) dx at scalar or array u.

        Closed forms for indicator and gaussian pairs; other pairs fall back
        to a trapezoid rule per shift.  A scalar u returns a float.
        """
        u = np.asarray(u, dtype=float)
        if self.kind == "indicator" and other.kind == "indicator":
            a1, b1 = self.params
            a2, b2 = other.params
            out = np.maximum(0.0, np.minimum(b1, b2 - u) - np.maximum(a1, a2 - u))
        elif self.kind == "gaussian" and other.kind == "gaussian":
            c1, w1 = self.params
            c2, w2 = other.params
            s2 = w1 * w1 + w2 * w2
            out = (math.sqrt(2.0 * math.pi) * w1 * w2 / math.sqrt(s2)
                   * np.exp(-0.5 * (c2 - u - c1) ** 2 / s2))
        elif self.kind == "indicator" and other.kind == "gaussian":
            a, b = self.params
            c, w = other.params
            lo = (a + u - c) / (w * math.sqrt(2.0))
            hi = (b + u - c) / (w * math.sqrt(2.0))
            out = w * math.sqrt(math.pi / 2.0) * (_erf(hi) - _erf(lo))
        elif self.kind == "gaussian" and other.kind == "indicator":
            out = np.asarray(other.cross_correlation(self, -u))
        else:
            out = np.array([self._cross_correlation_table(other, v)
                            for v in u.ravel()]).reshape(u.shape)
        return float(out) if out.ndim == 0 else out

    def _cross_correlation_table(self, other: "TestFunction", u: float) -> float:
        lo = max(-self.support_radius(), -other.support_radius() - u)
        hi = min(self.support_radius(), other.support_radius() - u)
        if hi <= lo:
            return 0.0
        grid = np.linspace(lo, hi, 2049)
        return float(np.trapezoid(self(grid) * other(grid + u), grid))


# ---------------------------------------------------------------------------
# Two-point excess and the variance constant
# ---------------------------------------------------------------------------

def two_point_F(model: CorrelationModel, z):
    """Two-point excess intensity rho_2(0, z) - 1/pi^2; even, -1/pi^2 at 0.

    Accepts a scalar (returns a float) or an array (returns an array of the
    same shape, from one `derivs` and one `one_minus_kappa` call).
    Below |z| = 1e-4 the continuity value is returned: the exact value
    approaches -1/pi^2 linearly with slope bounded by the inverse
    correlation length, so the substitution error stays below 1e-4 there.
    """
    z = np.abs(np.asarray(z, dtype=float))
    zc = np.maximum(z, _NEAR_ZERO).ravel()
    k0, k1, k2 = model.derivs(zc, 2)
    om2 = np.asarray(model.one_minus_kappa(zc), dtype=float) * (1.0 + k0)
    if (om2 < 1e-14).any():
        i = int(np.argmin(om2))
        raise NearSingular(
            f"1 - kappa^2 = {om2[i]:.3e} at z = {zc[i]}: model correlation "
            "reaches 1 away from 0")
    k1sq = k1 * k1
    denom = om2 - k1sq
    a = np.ones_like(denom)
    np.divide(k0 * k1sq + k2 * om2, denom, out=a, where=denom != 0.0)
    a = np.minimum(1.0, np.maximum(-1.0, a))
    # ratio * h - 1 with ratio = denom / om2^1.5, written as
    # (ratio - 1) h + (h - 1) so that no rounding floor is left where
    # kappa is tiny: ratio - 1 = (k^2 / (1 + s) - k'^2 / om2) / s, s = om2^1/2
    s = np.sqrt(om2)
    ratio_m1 = (k0 * k0 / (1.0 + s) - k1sq / om2) / s
    h_m1 = a * np.arcsin(a) - a * a / (1.0 + np.sqrt(np.maximum(0.0, 1.0 - a * a)))
    f = (ratio_m1 * (1.0 + h_m1) + h_m1) * _INV_PI2
    out = np.where(z < _NEAR_ZERO, -_INV_PI2, f.reshape(z.shape))
    return float(out) if out.ndim == 0 else out


# QUADPACK qk21 (Piessens et al., QUADPACK, Springer 1983): the 21-point
# Kronrod rule on [-1, 1] and its embedded 10-point Gauss rule.  Positive
# half, centre last; the Gauss nodes are the odd-indexed Kronrod nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525278414, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_NODES = np.concatenate([-_XGK[:10], _XGK[::-1]])
_GK_KRONROD = np.concatenate([_WGK[:10], _WGK[::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[19:10:-2] = _WG
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _qk21(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qk21 value and error estimate of every panel [lo_i, hi_i], one f call."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fv = np.asarray(f((centre[:, None] + half[:, None] * _GK_NODES).ravel()),
                    dtype=float).reshape(lo.size, 21)
    resk = fv @ _GK_KRONROD
    resg = fv @ _GK_GAUSS
    resabs = np.abs(fv) @ _GK_KRONROD * half
    resasc = np.abs(fv - 0.5 * resk[:, None]) @ _GK_KRONROD * half
    err = np.abs((resk - resg) * half)
    scaled = (resasc != 0.0) & (err != 0.0)
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
    floor = resabs > _TINY / (50.0 * _EPS)
    err[floor] = np.maximum(50.0 * _EPS * resabs[floor], err[floor])
    return resk * half, err


def _integrate_panels(f, a: float, b: float, abs_tol: float,
                      panel_len: float, breaks=()) -> tuple[float, float]:
    """Globally adaptive qk21 quadrature on [a, b], with a summed error bound.

    The first panels are at most panel_len long, with extra edges at the
    kinks `breaks` of f.  While the summed error exceeds max(abs_tol,
    1e-13 |value|), a round bisects the worst panels, the fewest whose errors
    cover the excess, and evaluates f once on the 21 nodes of each new panel,
    up to _MAX_PANELS times the first panel count.  Returns the value and the
    summed error estimate (inf if f was not finite).
    """
    if b <= a:
        return 0.0, 0.0
    edges = np.linspace(a, b, max(1, int(math.ceil((b - a) / panel_len))) + 1)
    cuts = np.unique(np.concatenate([edges, [t for t in breaks if a < t < b]]))
    cap = _MAX_PANELS * (cuts.size - 1)
    lo, hi = cuts[:-1], cuts[1:]
    val, err = _qk21(f, lo, hi)
    while True:
        value, total = float(val.sum()), float(err.sum())
        if not math.isfinite(value + total):
            return value, math.inf  # a non-finite integrand certifies nothing
        excess = total - max(abs_tol, 1e-13 * abs(value))
        mid = 0.5 * (lo + hi)
        cand = np.flatnonzero((mid > lo) & (mid < hi))
        if excess <= 0.0 or lo.size >= cap or cand.size == 0:
            return value, total
        # worst first; the prefix whose errors cover the excess, within the cap
        order = cand[np.argsort(-err[cand], kind="stable")]
        e = err[order]
        pick = order[np.cumsum(e) - e < excess][:cap - lo.size]

        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], lo[pick], mid[pick]])
        hi = np.concatenate([hi[keep], mid[pick], hi[pick]])
        v, e = _qk21(f, lo[-2 * pick.size:], hi[-2 * pick.size:])
        val, err = np.concatenate([val[keep], v]), np.concatenate([err[keep], e])


def _certified_integral(f, pieces, tail: float, factor: float,
                        tol: float, breaks=()) -> float:
    """Integral of f over pieces (a, b, panel_len, abs_tol) with kinks
    `breaks`, refused unless factor x (tail + panel errors) <= tol.

    Each piece runs its own `_integrate_panels` loop to its own abs_tol.
    `tail` bounds what the pieces leave out, and `factor` turns the
    integral into the reported quantity.  A too large tail bound is refused
    before f is called.
    """
    end = pieces[-1][1]
    if factor * tail > tol:
        raise QuadratureNotConverged(
            f"tail bound {factor * tail:.3e} alone exceeds tolerance "
            f"{tol:.3e} (truncation {end})")
    value = err = 0.0
    for a, b, panel_len, abs_tol in pieces:
        v, e = _integrate_panels(f, a, b, abs_tol, panel_len, breaks=breaks)
        value += v
        err += e
    if factor * (err + tail) > tol:
        raise QuadratureNotConverged(
            f"certified error {factor * (err + tail):.3e} exceeds tolerance "
            f"{tol:.3e} (truncation {end})")
    return value


def _envelope_tail(env_sq, T: float) -> float:
    """Certified upper bound for int_T^inf env_sq, env_sq non-increasing and
    evaluated on arrays.

    An upper Riemann sum on a geometric grid from T to 50 T (ratio below
    1 + 1/64), then env_sq(50 T) * 50 T: beyond 50 T every preset envelope
    is <= c / t, whose square integrates to at most that.
    """
    t = np.geomspace(T, 50.0 * T, 254)
    e = env_sq(t)
    return float(e[:-1] @ np.diff(t) + e[-1] * t[-1])


def _envelope_bound(model: CorrelationModel, T: float, reach: str) -> float:
    """Bound on int_T^inf |F| from the derivative envelopes e_l, for an
    integral that `reach` says passes T; refused where they certify none.

    |F| <= pi^-2 (e0^2 + 2 e1^2 + 1.3 e2^2) once every e_l is below 0.1,
    which is asked from T = 20 on.
    """
    starts = [model.envelope_start(l) for l in range(3)]
    if None in starts:
        raise QuadratureNotConverged(
            f"{reach}, and model {model.kind} has no tail envelope to bound "
            "F there (table models have none)")
    if max(starts) > T or T < 20.0 or max(
            model.tail_envelope(l, T) for l in range(3)) > 0.1:
        raise QuadratureNotConverged(
            f"{reach}, where the {model.kind} envelope is not certified: it "
            f"needs T >= {max(20.0, *starts):g} and envelopes below 0.1")

    def env_sq(t):
        e0, e1, e2 = (model.tail_envelope(l, t) for l in range(3))
        return e0 ** 2 + 2.0 * e1 ** 2 + 1.3 * e2 ** 2

    return _envelope_tail(env_sq, T) / math.pi ** 2


def sigma_squared(model: CorrelationModel, quad: QuadratureSpec | None = None
                  ) -> float:
    """Linear-growth constant of the zero-count variance: 1/pi + 2 int_0^inf F.

    The integral is truncated at the quadrature spec's radius, and the F
    tail beyond it must be certified (see `_certified_integral`).
    """
    spec = quad or model.default_quadrature()
    T = spec.truncation_radius
    share = 0.25 * spec.abs_tolerance
    integral = _certified_integral(
        lambda z: two_point_F(model, z),
        [(0.0, min(1.0, T), 1.0, share), (min(1.0, T), T, 25.0, share)],
        _envelope_bound(model, T, f"sigma^2 integrates F to infinity, past "
                        f"the truncation T = {T:g}"),
        2.0, spec.abs_tolerance)
    return 1.0 / math.pi + 2.0 * integral


def sigma_lower_bound(model: CorrelationModel) -> float:
    """Positive lower bound for sigma^2: its second-chaos term.

    pi^-2 int_0^inf (kappa + kappa'')^2 = (1/pi) int (1 - xi^2)^2 g(xi)^2
    dxi by Parseval, from the model's exact `second_chaos_mass`; no
    quadrature and no `derivs` call.
    """
    return model.second_chaos_mass() / math.pi


def predicted_covariance(model: CorrelationModel, phi1: TestFunction,
                         phi2: TestFunction, R: float,
                         quad: QuadratureSpec | None = None) -> float:
    """Exact finite-R covariance of two linear statistics of the zero measure.

    R int phi1(x) phi2(x + z/R) F(z) dx dz  +  (R/pi) int phi1 phi2,
    with the inner cross-correlation in closed form per test-function pair.
    """
    _require_scale("R", R)
    spec = quad or model.default_quadrature()
    r1, r2 = phi1.support_radius(), phi2.support_radius()
    span = R * (r1 + r2)
    zmax = min(spec.truncation_radius, span + 1.0)
    tail = 0.0 if zmax >= span else _envelope_bound(
        model, zmax, f"the span R (r1 + r2) = {R:g} x ({r1:g} + {r2:g}) = "
        f"{span:g} passes the truncation T = {zmax:g}")
    if tail:
        tail *= 2.0 * abs(min(phi1.integral() * phi2.sup_bound(),
                              phi2.integral() * phi1.sup_bound()))
    # the integrand kinks where F(|z|) does, at 0, and where the shifted ends
    # of an indicator pair meet
    kinks = [0.0]
    if phi1.kind == "indicator" and phi2.kind == "indicator":
        (a1, b1), (a2, b2) = phi1.params, phi2.params
        kinks += [R * (a2 - b1), R * (a2 - a1), R * (b2 - b1), R * (b2 - a1)]
    integral = _certified_integral(
        lambda z: two_point_F(model, z) * phi1.cross_correlation(phi2, z / R),
        [(-zmax, zmax, 10.0, 0.5 * spec.abs_tolerance)], tail, R,
        max(spec.abs_tolerance, 1e-6) * max(R, 1.0), breaks=kinks)
    return R * integral + (R / math.pi) * phi1.cross_correlation(phi2, 0.0)


def expected_linear_statistic(phi: TestFunction, R: float) -> float:
    """Mean of the linear statistic of the rescaled zero measure: (R/pi) int phi."""
    _require_scale("R", R)
    return (R / math.pi) * phi.integral()
