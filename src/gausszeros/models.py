"""Normalized stationary correlation functions and their derivatives.

Every model evaluates kappa and its derivatives with kappa(0) = 1 and
kappa''(0) = -1 (unit variance for the process and its derivative).  The
three presets carry exact closed-form derivatives up to order 12, monotone
tail envelopes and their spectral density; spectral-table models evaluate
derivatives by quadrature against their density.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (ConfigError, DegenerateDensity, OrderUnavailable,
                     QuadratureNotConverged)

__all__ = [
    "CorrelationModel",
    "BargmannFockModel",
    "SincModel",
    "CauchyModel",
    "SpectralDensity",
    "SpectralTableModel",
    "QuadratureSpec",
    "get_model",
    "tail_norm",
    "normalize_from_spectral_density",
    "load_spectral_table",
    "PRESETS",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_BF_CUT = 40.0  # exp(-x^2/2) is 0 in double precision beyond |x| = 38.6
_TAIL_TOL = 1e-12  # table models: spectral mass cut at T, kappa cut at x_far


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation radius and tolerance of the certified 1-D integrals."""

    truncation_radius: float = 40.0
    abs_tolerance: float = 1e-8

    def __post_init__(self):
        if not (0 < self.truncation_radius < math.inf
                and 0 < self.abs_tolerance < math.inf):
            raise ConfigError("truncation radius and tolerance must be "
                              "positive and finite")


class CorrelationModel:
    """Base class: a normalized even correlation function with derivatives.

    `max_derivative_order` is the declared public smoothness; presets can
    evaluate higher orders (up to `internal_order_cap`) for the series
    expansions that stabilize divided differences near the diagonal.
    """

    kind: str = "base"
    max_derivative_order: int = 0
    internal_order_cap: int = 0

    # -- core evaluation ---------------------------------------------------
    def derivs(self, x, max_order: int) -> np.ndarray:
        """kappa and derivatives (order 0..max_order) at scalar or array x.

        Returns shape (max_order + 1,) for scalar x, (max_order + 1, len(x))
        for arrays.  Orders above `internal_order_cap` are refused.
        """
        if max_order > self.internal_order_cap:
            raise OrderUnavailable(
                f"model {self.kind} evaluates kappa^(j) up to j = "
                f"{self.internal_order_cap}, not {max_order}")
        xb, scalar = _as_batch(x)
        out = self._derivs(xb, max_order)
        return out[:, 0] if scalar else out

    def _derivs(self, x: np.ndarray, max_order: int) -> np.ndarray:
        """Rows 0..max_order of kappa^(j) at the 1-D array x."""
        raise NotImplementedError

    def kappa(self, x):
        return self.derivs(x, 0)[0]

    def spectral_density(self, xi):
        """Even density g with kappa(x) = int g(xi) e^{i xi x} dxi (full line)."""
        raise NotImplementedError

    def second_chaos_mass(self) -> float:
        """int (1 - xi^2)^2 g(xi)^2 dxi over the full line, exactly: by
        Parseval, (1/pi) int_0^inf (kappa + kappa'')^2 dx."""
        return self._chaos_mass

    # -- accuracy helpers --------------------------------------------------
    def one_minus_kappa(self, x):
        """1 - kappa(x), full relative precision also for small x."""
        return 1.0 - self.kappa(x)

    # -- tail control ------------------------------------------------------
    def envelope_start(self, order: int):
        """Smallest x from which `tail_envelope(order, .)` is valid, or None."""
        return None

    def tail_envelope(self, order: int, x):
        """Non-increasing upper bound for sup over |t| >= x of |kappa^(order)(t)|,
        at scalar or array x."""
        raise NotImplementedError

    def moment_bound(self, order: int) -> float:
        """Global bound on |kappa^(order)| (spectral moment of that order)."""
        raise NotImplementedError

    def default_quadrature(self) -> QuadratureSpec:
        return QuadratureSpec()


def _as_batch(x):
    arr = np.asarray(x, dtype=float)
    return arr.reshape(-1), arr.ndim == 0


class BargmannFockModel(CorrelationModel):
    """kappa(x) = exp(-x^2 / 2); derivatives via Hermite-type polynomials.

    kappa^(j)(x) = (-1)^j He_j(x) exp(-x^2 / 2).  Every order comes from one
    Horner pass over a zero-padded (order, degree) table of He_j
    coefficients built in `__init__` (under 0.5 ms), with the same
    operations, in the same order, as one `polyval` per order.
    """

    kind = "bargmann-fock"
    max_derivative_order = 12
    internal_order_cap = 48
    # int (1 - 2 xi^2 + xi^4) e^{-xi^2} dxi / (2 pi) = (3 sqrt(pi) / 4) / (2 pi)
    _chaos_mass = 3.0 / (8.0 * math.sqrt(math.pi))

    def __init__(self):
        # coefficient rows of He_j (probabilists' Hermite), ascending powers
        cap = self.internal_order_cap
        rows = [np.array([1.0]), np.array([0.0, 1.0])]
        for j in range(2, cap + 1):
            prev, prev2 = rows[-1], rows[-2]
            nxt = np.zeros(j + 1)
            nxt[1:] += prev                      # x * He_{j-1}
            nxt[: j - 1] -= (j - 1) * prev2      # -(j-1) * He_{j-2}
            rows.append(nxt)
        self._he = np.zeros((cap + 1, cap + 1))
        for j, row in enumerate(rows):
            self._he[j, : j + 1] = row
        self._he_abs = [np.abs(r) for r in rows]
        self._sign = np.array([-1.0 if j % 2 else 1.0 for j in range(cap + 1)])

    def _derivs(self, xb, max_order: int) -> np.ndarray:
        # exp(-x^2/2) is exactly 0 from |x| = 38.6 on; clamping x to +-40
        # keeps the polynomial factor finite there instead of inf * 0
        xb = np.minimum(np.maximum(xb, -_BF_CUT), _BF_CUT)
        gauss = np.exp(-0.5 * xb * xb)
        # Horner from the top degree down.  Row j joins at its leading
        # coefficient (0 * x + 1 = 1), so each row repeats the operations
        # of its own Horner evaluation and keeps its bits.
        poly = np.zeros((max_order + 1, xb.size))
        for i in range(max_order, -1, -1):
            rows = poly[i:]
            rows *= xb
            rows += self._he[i:max_order + 1, i, None]
        # the sign goes on after the polynomial: folded into the table it
        # would turn the -0.0 of some odd orders at x = 0 into +0.0
        return self._sign[:max_order + 1, None] * poly * gauss

    def spectral_density(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-0.5 * xi * xi) / math.sqrt(2.0 * math.pi)

    def one_minus_kappa(self, x):
        return -np.expm1(-0.5 * np.minimum(np.abs(np.asarray(x, dtype=float)),
                                           _BF_CUT) ** 2)

    def envelope_start(self, order: int):
        return max(math.sqrt(max(order, 1)), 1.0)

    def tail_envelope(self, order: int, x):
        return npoly.polyval(x, self._he_abs[order]) * np.exp(-0.5 * x * x)

    def moment_bound(self, order: int) -> float:
        # |kappa^(j)| <= E|xi^j| for the standard Gaussian spectral density
        j = order
        return float(2 ** (j / 2) * math.gamma((j + 1) / 2) / math.sqrt(math.pi))


class SincModel(CorrelationModel):
    """kappa(x) = sinc(sqrt(3) x), the band-limited correlation on [-sqrt3, sqrt3].

    With u = sqrt3 x, kappa^(j) is its 60-term Taylor series below the cut
    |u| < max(0.5, 0.3 j), and Leibniz's rule on sin(u) u^-1 beyond it.
    Every order comes from one pass over coefficient tables built in
    `__init__` (about 2 ms): one power stack per parity of j for the
    series, and one sin(u + pi m / 2) and one u^-p per m and p shared by
    all orders for Leibniz's rule.  Each value is summed in the same order,
    from the same products, as a per-order evaluation, so it keeps its bits.
    """

    kind = "sinc-sqrt3"
    max_derivative_order = 12
    internal_order_cap = 40
    _chaos_mass = 2.0 * _SQRT3 / 15.0  # int_{-sqrt3}^{sqrt3} (1 - xi^2)^2 / 12

    _SERIES_TERMS = 60
    _OMK_TERMS = 19
    # (order, point) pairs per block: the series' (order, term, point)
    # stack stays near 1 MB whatever the size of the call
    _BLOCK = 4096

    def __init__(self):
        cap = self.internal_order_cap
        # B_l = sum_{m<l} C(l, m) (l-m)!  bounds the non-leading Leibniz terms
        self._leibniz_b = [
            float(sum(math.comb(l, m) * math.factorial(l - m) for m in range(l)))
            for l in range(self.max_derivative_order + 1)
        ]
        self._cuts = np.array([max(0.5, 0.3 * j) for j in range(cap + 1)])
        self._scale = np.array([float(3.0 ** (j // 2)) * (_SQRT3 if j % 2 else 1.0)
                                for j in range(cap + 1)])
        # series term n of order j: coefficient of u^(2n + j % 2), from
        # scale * (-1)^k u^(2k-j) / ((2k+1) (2k-j)!) with k = (j+1)//2 + n.
        # Folding the 3^(j/2) scale into the coefficient keeps the values at
        # u = 0 exact (e.g. kappa''(0) = 3 / (3 0!) = -1 without rounding).
        fact = [math.factorial(n) for n in range(2 * self._SERIES_TERMS)]
        self._series = np.array([
            [(-1.0) ** k * scale / ((2 * k + 1) * fact[2 * k - j])
             for k in range((j + 1) // 2, (j + 1) // 2 + self._SERIES_TERMS)]
            for j, scale in enumerate(self._scale.tolist())])
        # Leibniz on sin(u) * u^{-1}: order j is the sum over m of
        # _leibniz[j - m, j] sin(u + pi m / 2) u^-(j - m + 1)
        self._leibniz = np.array([
            [math.comb(j, j - d) * (-1.0) ** d * fact[d] if j >= d else 0.0
             for j in range(cap + 1)] for d in range(cap + 1)])
        self._shifts = np.array([0.5 * math.pi * m for m in range(cap + 1)])
        # 1 - sinc(u) = sum_k (-1)^(k+1) u^(2k) / (2k+1)!, k = 1..19
        self._omk_sign = np.array([(-1.0) ** (k + 1)
                                   for k in range(1, self._OMK_TERMS + 1)])[:, None]
        self._omk_fact = np.array([float(math.factorial(2 * k + 1))
                                   for k in range(1, self._OMK_TERMS + 1)])[:, None]

    def _derivs(self, xb, max_order: int) -> np.ndarray:
        u = _SQRT3 * xb
        out = np.empty((max_order + 1, u.size))
        step = max(1, self._BLOCK // (max_order + 1))
        for s in range(0, u.size, step):
            out[:, s:s + step] = self._derivs_block(u[s:s + step], max_order)
        return out

    def _derivs_block(self, u: np.ndarray, top: int) -> np.ndarray:
        series = np.abs(u) < self._cuts[:top + 1, None]  # (order, point)
        out = np.empty((top + 1, u.size))
        # the cuts grow with the order: a point below order 0's cut takes
        # the series at every order, one beyond the top order's cut never
        closed, near = ~series[0], series[-1]
        if closed.any():
            out[:, closed] = self._leibniz_sum(u[closed], top)
        if near.any():
            out[:, near] = np.where(series[:, near],
                                    self._series_sum(u[near], top), out[:, near])
        return out

    def _series_sum(self, u: np.ndarray, top: int) -> np.ndarray:
        # alternating with ~e^|u| cancellation, so only used below the
        # per-order cut; only points below the top cut come here, where no
        # power of |u| < 12 overflows
        steps = np.empty((2, self._SERIES_TERMS, u.size))
        steps[0, 0], steps[1, 0] = 1.0, u
        steps[:, 1:] = u * u
        # u^(2n + parity), built by the repeated products u^e u2 u2 ...
        pows = np.cumprod(steps, axis=1)
        out = np.empty((top + 1, u.size))
        for parity in (0, 1):
            terms = self._series[parity:top + 1:2, :, None] * pows[parity]
            out[parity::2] = np.cumsum(terms, axis=1)[:, -1]  # in term order
        return out

    def _leibniz_sum(self, u: np.ndarray, top: int) -> np.ndarray:
        # loses ~ j! / |u|^j of precision, so it is only used beyond the
        # per-order cut where that factor is tame
        inv = 1.0 / u
        sines = np.sin(u + self._shifts[:top + 1, None])
        acc = np.zeros((top + 1, u.size))
        # step d adds term m = j - d of every order j >= d: the terms of
        # each order arrive by increasing m, all times the same inv^(d+1),
        # one scalar-exponent power per step (an array exponent of 2 would
        # take a general power instead of a square)
        for d in range(top, -1, -1):
            acc[d:] += (self._leibniz[d, d:top + 1, None] * sines[:top + 1 - d]
                        * inv ** (d + 1))
        return self._scale[:top + 1, None] * acc

    def spectral_density(self, xi):
        return np.where(np.abs(np.asarray(xi, dtype=float)) < _SQRT3,
                        0.5 / _SQRT3, 0.0)

    def one_minus_kappa(self, x):
        xb, scalar = _as_batch(x)
        u = _SQRT3 * xb
        out = np.empty_like(u)
        small = np.abs(u) < 1.0
        if np.any(small):
            us = u[small]
            u2 = us * us
            # u^(2k) by repeated products, each term summed in k order
            pows = np.cumprod(np.broadcast_to(u2, (self._OMK_TERMS, u2.size)),
                              axis=0)
            terms = self._omk_sign * pows / self._omk_fact
            out[small] = np.cumsum(terms, axis=0)[-1]
        if np.any(~small):
            ul = u[~small]
            out[~small] = 1.0 - np.sin(ul) / ul
        return out[0] if scalar else out

    def envelope_start(self, order: int):
        return 1.0 / _SQRT3

    def tail_envelope(self, order: int, x):
        u = _SQRT3 * x
        return _SQRT3 ** order * (1.0 / u + self._leibniz_b[order] / (u * u))

    def moment_bound(self, order: int) -> float:
        # spectral density uniform on [-sqrt3, sqrt3]: E|xi|^j = 3^{j/2}/(j+1)
        return float(3.0 ** (order / 2) / (order + 1))

    def default_quadrature(self) -> QuadratureSpec:
        # kappa'' decays only like 1/x here; certifying 1e-8 would need a
        # truncation near 1e8, so the default certifies 1e-3 instead.
        return QuadratureSpec(truncation_radius=4000.0, abs_tolerance=1e-3)


class CauchyModel(CorrelationModel):
    """kappa(x) = (1 + x^2/2)^(-1); derivatives via the complex pole pair."""

    kind = "cauchy"
    max_derivative_order = 12
    internal_order_cap = 48
    # 2 int_0^inf (1 - xi^2)^2 e^{-a xi} / 2 = 1/a - 4/a^3 + 24/a^5, a = 2 sqrt2
    _chaos_mass = 7.0 / (16.0 * _SQRT2)

    def _derivs(self, xb, max_order: int) -> np.ndarray:
        out = np.empty((max_order + 1, xb.size))
        inv_r = 1.0 / np.hypot(xb, _SQRT2)  # no overflow at huge |x|
        theta = np.arctan2(-_SQRT2, xb)
        for j in range(max_order + 1):
            # kappa^(j)(x) = sqrt2 (-1)^j j! Im (x - i sqrt2)^{-(j+1)}
            sign = -1.0 if j % 2 else 1.0
            out[j] = (_SQRT2 * sign * math.factorial(j)
                      * np.sin(-(j + 1) * theta) * inv_r ** (j + 1))
        zero = xb == 0.0
        if np.any(zero):
            for j in range(max_order + 1):
                if j % 2:
                    out[j, zero] = 0.0
                else:
                    m = j // 2
                    out[j, zero] = (-1.0) ** m * math.factorial(j) / 2.0 ** m
        return out

    def spectral_density(self, xi):
        return np.exp(-_SQRT2 * np.abs(np.asarray(xi, dtype=float))) / _SQRT2

    def one_minus_kappa(self, x):
        # t / (1 + t) with t = x^2 / 2, as (x / |x - i sqrt2|)^2: no overflow
        x = np.asarray(x, dtype=float)
        return (x / np.hypot(x, _SQRT2)) ** 2

    def envelope_start(self, order: int):
        return 0.5

    def tail_envelope(self, order: int, x):
        # |Im (x - i sqrt2)^{-(j+1)}| <= (j+1) sqrt2 / (x (x^2+2)^{(j+1)/2})
        return (2.0 * math.factorial(order + 1)
                / (x * (x * x + 2.0) ** ((order + 1) / 2)))

    def moment_bound(self, order: int) -> float:
        # density exp(-sqrt2 |xi|)/sqrt2: E|xi|^j = j! 2^{-j/2}
        return float(math.factorial(order) / 2 ** (order / 2))

    def default_quadrature(self) -> QuadratureSpec:
        # |F| tail ~ x^-4: truncation 500 certifies well below 1e-8
        return QuadratureSpec(truncation_radius=500.0, abs_tolerance=1e-8)


# ---------------------------------------------------------------------------
# Spectral densities and table-backed models
# ---------------------------------------------------------------------------

_TAIL_KINDS = ("gaussian", "power", "none")


@dataclass(frozen=True)
class SpectralDensity:
    """An even non-negative density, given as a table on a grid from xi = 0.

    The tail declares how the density decays beyond `xi_max`:
    gaussian -> c * exp(-a xi^2), power -> c * |xi|^(-m), none -> 0.
    """

    xi: np.ndarray
    g: np.ndarray
    tail_kind: str = "none"
    tail_params: tuple = ()

    def __post_init__(self):
        if self.tail_kind not in _TAIL_KINDS:
            raise ConfigError(f"unknown tail kind {self.tail_kind!r}")
        n, params = (0 if self.tail_kind == "none" else 2), self.tail_params
        if not (isinstance(params, (list, tuple)) and len(params) == n and all(
                isinstance(v, (int, float)) and 0 <= v < math.inf
                for v in params)):
            raise ConfigError(f"a {self.tail_kind} tail takes {n} finite "
                              f"non-negative params, got {params!r}")
        object.__setattr__(self, "tail_params", tuple(map(float, params)))
        try:
            xi = np.asarray(self.xi, dtype=float)
            g = np.asarray(self.g, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"spectral table: {exc}") from exc
        if xi.ndim != 1 or xi.shape != g.shape or xi.size < 2 or not (
                np.isfinite(np.r_[xi, g]).all()):
            raise ConfigError("spectral table needs matching finite 1-D "
                              "xi and g arrays")
        if xi[0] != 0.0:
            # np.interp would extend g[0] flat down to 0
            raise ConfigError(f"spectral grid must start at xi = 0, not {xi[0]:g}")
        if np.any(np.diff(xi) <= 0):
            raise ConfigError("spectral grid must be strictly increasing")
        if np.any(g < 0):
            raise ConfigError("spectral density must be non-negative")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "g", g)

    @property
    def xi_max(self) -> float:
        """The last grid node, where the declared tail takes over."""
        return float(self.xi[-1])

    def density(self, xi):
        """Evaluate the density at |xi|, linearly interpolating the table."""
        a = np.abs(np.asarray(xi, dtype=float))
        out = np.interp(a, self.xi, self.g, right=0.0)
        if self.tail_kind == "gaussian":
            c, alpha = self.tail_params
            out = np.where(a > self.xi_max, c * np.exp(-alpha * a * a), out)
        elif self.tail_kind == "power":
            c, m = self.tail_params
            out = np.where(a > self.xi_max, c * np.where(a > 0, a, 1.0) ** (-m), out)
        return out

    def tail_moment_bound(self, order: int, T: float) -> float:
        """Upper bound for the integral of xi^order * density over [T, inf)."""
        if T < self.xi_max:
            raise ConfigError("tail bound only valid beyond xi_max")
        if self.tail_kind == "none":
            return 0.0
        if self.tail_kind == "gaussian":
            c, alpha = self.tail_params
            # int_T^inf t^j c e^(-a t^2) dt <= c T^j e^(-a T^2) / (2 a T - j/T)
            denom = 2.0 * alpha * T - order / T
            if denom <= 0:
                return math.inf
            return c * T ** order * math.exp(-alpha * T * T) / denom
        c, m = self.tail_params
        if m <= order + 1:
            return math.inf
        return c * T ** (order - m + 1) / (m - order - 1)

    def max_finite_moment(self) -> int:
        """Largest order j of a finite moment: j < m - 1 for a power tail."""
        if self.tail_kind == "power":
            c, m = self.tail_params
            return max(math.ceil(m) - 2, 0)
        return 12


class SpectralTableModel(CorrelationModel):
    """Correlation model induced by an even spectral density via quadrature.

    kappa^(j)(x) is the j-th moment-weighted Fourier-cosine/sine transform of
    the density.  Points are grouped by octave, 2^(e-1) < |x| + 1 <= 2^e, and
    each summed pairwise on the panels for 2^e - 1 (at most twice the nodes
    |x| needs), so a value does not depend on the call it is in.
    """

    kind = "spectral-table"
    _NODE_BUDGET = 1 << 20  # per point: |x| ~ 8e3 at T ~ 12, ~0.15 s, ~100 MB
    _BLOCK = 1 << 19  # (point, node) products per block (4 MB), one point at least

    def __init__(self, density: SpectralDensity, *, label: str = "spectral-table"):
        self._density = density
        self.kind = label
        self.max_derivative_order = min(12, density.max_finite_moment())
        self.internal_order_cap = self.max_derivative_order
        self._T = self._pick_truncation()
        self._kinks = self._panel_edges()
        self._gl_nodes, self._gl_weights = np.polynomial.legendre.leggauss(8)
        nodes, weights = self._panels_for(0.0)
        dens = self._density.density(nodes)
        # full-line absolute moments of the even density
        self._moments = [2.0 * float(np.sum(weights * nodes ** j * dens))
                         for j in range(self.max_derivative_order + 1)]
        # exact on each linear piece of g (degree 6); the mass beyond T is left out
        self._chaos_mass = 2.0 * float(weights @ ((1.0 - nodes ** 2) * dens) ** 2)
        self._x_far = self._far_field(nodes)
        # kappa^(j) = 2 (-1)^(m + odd) int xi^j g trig_j, j = 2m + odd
        self._trig_sign = np.array([(-1.0) ** (j // 2 + j % 2) * 2.0
                                    for j in range(self.max_derivative_order + 1)])

    # -- construction helpers ------------------------------------------
    def _pick_truncation(self) -> float:
        """First T = max(xi_max, 1) 1.25^n where the top moment's tail is
        below _TAIL_TOL, refused past the node budget of the x = 0 panels:
        pi / 4 long, 8 nodes each, plus one panel per kink."""
        density = self._density
        if density.tail_kind == "none":
            return density.xi_max
        jmax = self.max_derivative_order
        t_cap = (self._NODE_BUDGET / 8 - density.xi.size - 1) * math.pi / 4
        T = max(density.xi_max, 1.0)
        while not density.tail_moment_bound(jmax, T) < _TAIL_TOL:
            if T > t_cap:
                raise DegenerateDensity(
                    f"the {density.tail_kind} tail {density.tail_params} "
                    f"leaves {density.tail_moment_bound(jmax, T):.3g} of "
                    f"moment {jmax} beyond T = {T:.3g} "
                    f"(tolerance {_TAIL_TOL:g}), "
                    f"past the {self._NODE_BUDGET}-node budget at x = 0")
            T *= 1.25
        return T

    def _panel_edges(self) -> np.ndarray:
        edges = [0.0, self._T]
        edges.extend(float(t) for t in self._density.xi if 0.0 < t < self._T)
        return np.unique(np.asarray(edges))

    def _panels_for(self, x: float, asked=None) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes/weights resolving e^{i x xi} on [0, T], within budget."""
        max_len = math.pi / (4.0 * (abs(x) + 1.0))
        counts = [max(1, math.ceil((hi - lo) / max_len))
                  for lo, hi in zip(self._kinks[:-1], self._kinks[1:])]
        need = self._gl_nodes.size * sum(counts)
        if need > self._NODE_BUDGET:
            raise QuadratureNotConverged(
                f"kappa at |x| = {abs(asked or x):.3g} needs {need} quadrature "
                f"nodes, over the budget of {self._NODE_BUDGET}")
        nodes, weights = [], []
        for lo, hi, nsub in zip(self._kinks[:-1], self._kinks[1:], counts):
            sub = np.linspace(lo, hi, nsub + 1)
            mid = 0.5 * (sub[:-1] + sub[1:])[:, None]
            half = 0.5 * (sub[1:] - sub[:-1])[:, None]
            nodes.append((mid + half * self._gl_nodes[None, :]).ravel())
            weights.append((half * self._gl_weights[None, :]).ravel())
        return np.concatenate(nodes), np.concatenate(weights)

    def _far_field(self, nodes: np.ndarray) -> float:
        """|x| beyond which every kappa^(j) is below _TAIL_TOL, so 0 is returned.

        One integration by parts gives |kappa^(j)(x)| <= 2 (|q(0)| + |q(T)|
        + TV(q)) / |x| for q(xi) = xi^j g(xi) on [0, T]; TV is taken on the
        x = 0 quadrature nodes and the kinks, with a factor 2 of margin.
        """
        xi = np.union1d(nodes, self._kinks)
        bound = 0.0
        for j in range(self.max_derivative_order + 1):
            q = xi ** j * self._density.density(xi)
            bound = max(bound, abs(q[0]) + abs(q[-1]) + float(np.sum(np.abs(np.diff(q)))))
        return 4.0 * bound / _TAIL_TOL

    def _quadrature_blocks(self, xb: np.ndarray):
        """(columns, nodes, weighted density) for the points of xb within
        _x_far, at most _BLOCK (point, node) products at a time."""
        a = np.abs(xb)
        near = np.flatnonzero(~(a > self._x_far))  # a NaN point stays NaN
        mant, exp = np.frexp(a[near] + 1.0)  # |x| + 1 = mant 2^exp, mant >= 0.5
        octaves, group = np.unique(exp - (mant == 0.5), return_inverse=True)
        for g, e in enumerate(octaves.tolist()):
            cols = near[group == g]
            nodes, weights = self._panels_for(2.0 ** e - 1.0, float(a[cols].max()))
            dens = weights * self._density.density(nodes)
            step = max(1, self._BLOCK // nodes.size)
            for s in range(0, cols.size, step):
                yield cols[s:s + step], nodes, dens

    # -- CorrelationModel interface -------------------------------------
    def _derivs(self, xb, max_order: int) -> np.ndarray:
        out = np.zeros((max_order + 1, xb.size))
        for cols, nodes, dens in self._quadrature_blocks(xb):
            phase = xb[cols, None] * nodes
            trig = np.cos(phase), np.sin(phase)
            for j in range(max_order + 1):
                # scalar exponents: an array 2 would take a general power
                terms = nodes ** j * dens * trig[j % 2]
                out[j, cols] = self._trig_sign[j] * terms.sum(axis=1)
        return out

    def spectral_density(self, xi):
        return self._density.density(xi)

    def one_minus_kappa(self, x):
        xb, scalar = _as_batch(x)
        out = np.ones(xb.size)
        for cols, nodes, dens in self._quadrature_blocks(xb):
            half = np.sin(0.5 * xb[cols, None] * nodes)
            out[cols] = 4.0 * (dens * half ** 2).sum(axis=1)
        return out[0] if scalar else out

    def moment_bound(self, order: int) -> float:
        return self._moments[order]

    def default_quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(truncation_radius=60.0, abs_tolerance=1e-4)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

PRESETS = {
    "bargmann-fock": BargmannFockModel,
    "sinc-sqrt3": SincModel,
    "cauchy": CauchyModel,
}

_model_cache: dict[str, CorrelationModel] = {}


def get_model(name: str) -> CorrelationModel:
    """Look up a preset by name, or load a spectral-table JSON by path."""
    if name in PRESETS:
        if name not in _model_cache:
            _model_cache[name] = PRESETS[name]()
        return _model_cache[name]
    if name.endswith(".json"):
        return load_spectral_table(name)
    raise ConfigError(f"unknown model {name!r}; presets: {sorted(PRESETS)}")


def tail_norm(model: CorrelationModel, k: int, eta: float) -> float:
    """sup over orders l <= k and |x| >= eta of |kappa^(l)(x)|.

    Dense grid search on [eta, R] with the grid step of eta/1000 clamped to
    [1e-3, 1e-1], closed by the model's monotone tail envelope at R.  Models
    without an envelope return their largest spectral moment bound, a valid
    but non-decaying sup bound: |kappa^(l)(x)| <= int |xi|^l g(xi) dxi.
    """
    if k > model.max_derivative_order:
        raise OrderUnavailable(
            f"order {k} exceeds declared smoothness of {model.kind}")
    if eta < 0:
        raise ConfigError("eta must be >= 0")
    starts = [model.envelope_start(l) for l in range(k + 1)]
    if any(s is None for s in starts):
        return max(model.moment_bound(l) for l in range(k + 1))

    step = min(max(eta / 1000.0, 1e-3), 1e-1)
    R = max([eta + step] + [s for s in starts])
    while True:
        grid = _grid(eta, R, step)
        sup_grid = float(np.max(np.abs(model.derivs(grid, k))))
        env = max(model.tail_envelope(l, R) for l in range(k + 1))
        if env <= sup_grid or R > 1e5:
            return max(sup_grid, env)
        R *= 1.7


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Nodes lo, lo + step, ... <= hi, then hi; at most 400 000 steps."""
    n = int((hi - lo) / step) + 1
    if n > 400_000:
        step = (hi - lo) / 400_000
        n = 400_001
    g = lo + step * np.arange(n)
    return np.append(g[g <= hi], hi)


def normalize_from_spectral_density(raw: SpectralDensity, *,
                                    label: str = "spectral-table") -> SpectralTableModel:
    """Rescale an even density so the induced kappa has kappa(0)=1, kappa''(0)=-1.

    With A the mass and B the second moment of the raw density, the
    normalized density is xi -> sqrt(B/A^3) * raw(sqrt(B/A) xi).
    """
    probe = SpectralTableModel(raw, label="probe")
    A = probe.moment_bound(0)
    B = probe.moment_bound(2) if probe.max_derivative_order >= 2 else 0.0
    if not (math.isfinite(A) and math.isfinite(B)) or A <= 1e-300 or B <= 1e-300:
        raise DegenerateDensity(
            f"density mass {A} / second moment {B} unusable for normalization")
    s = math.sqrt(B / A)
    c = math.sqrt(B / A ** 3)

    scaled = SpectralDensity(xi=raw.xi / s, g=c * raw.g, tail_kind=raw.tail_kind,
                             tail_params=_scale_tail(raw, c, s))
    return SpectralTableModel(scaled, label=label)


def _scale_tail(raw: SpectralDensity, c: float, s: float) -> tuple:
    if raw.tail_kind == "gaussian":
        ct, alpha = raw.tail_params
        return (c * ct, alpha * s * s)
    if raw.tail_kind == "power":
        ct, m = raw.tail_params
        return (c * ct * s ** (-m), m)
    return ()


def load_spectral_table(path: str) -> SpectralTableModel:
    """Load {"xi": [...], "g": [...], "tail": {"kind": ..., "params": [...]}}."""
    with open(path) as fh:
        doc = json.load(fh)
    tail = doc.get("tail", {}) if isinstance(doc, dict) else None
    if not isinstance(tail, dict) or not {"xi", "g"} <= doc.keys():
        raise ConfigError(f"spectral table {path} must be a JSON object with "
                          "xi, g and an optional tail object")
    dens = SpectralDensity(xi=doc["xi"], g=doc["g"],
                           tail_kind=tail.get("kind", "none"),
                           tail_params=tail.get("params", ()))
    return normalize_from_spectral_density(dens, label=f"spectral:{path}")
