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

from .errors import ConfigError, DegenerateDensity, OrderUnavailable

__all__ = [
    "CorrelationModel",
    "BargmannFockModel",
    "SincModel",
    "CauchyModel",
    "SpectralDensity",
    "SpectralTableModel",
    "QuadratureSpec",
    "get_model",
    "eval_kappa_derivs",
    "tail_norm",
    "normalize_from_spectral_density",
    "load_spectral_table",
    "PRESETS",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the 1-D/2-D integrals used throughout the library."""

    truncation_radius: float = 40.0
    abs_tolerance: float = 1e-8
    max_nodes: int = 200

    def __post_init__(self):
        if self.truncation_radius <= 0 or self.abs_tolerance <= 0:
            raise ConfigError("truncation radius and tolerance must be positive")


class CorrelationModel:
    """Base class: a normalized even correlation function with derivatives.

    `max_derivative_order` is the declared public smoothness; presets can
    evaluate higher orders (up to `internal_order_cap`) for the series
    expansions that stabilize divided differences near the diagonal.
    """

    kind: str = "base"
    max_derivative_order: int = 0
    internal_order_cap: int = 0
    parameters: dict = {}

    # -- core evaluation ---------------------------------------------------
    def derivs(self, x, max_order: int) -> np.ndarray:
        """kappa and derivatives (order 0..max_order) at scalar or array x.

        Returns shape (max_order + 1,) for scalar x, (max_order + 1, len(x))
        for arrays.
        """
        raise NotImplementedError

    def kappa(self, x):
        return self.derivs(x, 0)[0]

    def spectral_density(self, xi):
        """Even density g with kappa(x) = int g(xi) e^{i xi x} dxi (full line)."""
        raise NotImplementedError

    # -- accuracy helpers --------------------------------------------------
    def one_minus_kappa(self, x):
        """1 - kappa(x), full relative precision also for small x."""
        return 1.0 - self.kappa(x)

    def one_minus_kappa_sq(self, x):
        """1 - kappa(x)^2 without cancellation at small x."""
        return self.one_minus_kappa(x) * (1.0 + self.kappa(x))

    # -- tail control ------------------------------------------------------
    def envelope_start(self, order: int):
        """Smallest x from which `tail_envelope(order, .)` is valid, or None."""
        return None

    def tail_envelope(self, order: int, x: float) -> float:
        """Non-increasing upper bound for sup over |t| >= x of |kappa^(order)(t)|."""
        raise NotImplementedError

    def moment_bound(self, order: int) -> float:
        """Global bound on |kappa^(order)| (spectral moment of that order)."""
        raise NotImplementedError

    def f_tail_integral_bound(self, T: float):
        """Upper bound for the integral of |two-point excess| over [T, inf).

        None when the model cannot certify a decaying tail.
        """
        return None

    def default_quadrature(self) -> QuadratureSpec:
        return QuadratureSpec()

    def describe(self) -> dict:
        return {"kind": self.kind, "max_derivative_order": self.max_derivative_order,
                "parameters": dict(self.parameters)}


def _as_batch(x):
    arr = np.asarray(x, dtype=float)
    return arr.reshape(-1), arr.ndim == 0


class BargmannFockModel(CorrelationModel):
    """kappa(x) = exp(-x^2 / 2); derivatives via Hermite-type polynomials."""

    kind = "bargmann-fock"
    max_derivative_order = 12
    internal_order_cap = 48
    parameters: dict = {}

    def __init__(self):
        # coefficient rows of He_j (probabilists' Hermite), ascending powers
        rows = [np.array([1.0]), np.array([0.0, 1.0])]
        for j in range(2, self.internal_order_cap + 1):
            prev, prev2 = rows[-1], rows[-2]
            nxt = np.zeros(j + 1)
            nxt[1:] += prev                      # x * He_{j-1}
            nxt[: j - 1] -= (j - 1) * prev2      # -(j-1) * He_{j-2}
            rows.append(nxt)
        self._he = rows
        self._he_abs = [np.abs(r) for r in rows]

    def derivs(self, x, max_order: int) -> np.ndarray:
        xb, scalar = _as_batch(x)
        gauss = np.exp(-0.5 * xb * xb)
        out = np.empty((max_order + 1, xb.size))
        for j in range(max_order + 1):
            sign = -1.0 if j % 2 else 1.0
            out[j] = sign * npoly.polyval(xb, self._he[j]) * gauss
        return out[:, 0] if scalar else out

    def spectral_density(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-0.5 * xi * xi) / math.sqrt(2.0 * math.pi)

    def one_minus_kappa(self, x):
        return -np.expm1(-0.5 * np.asarray(x, dtype=float) ** 2)

    def envelope_start(self, order: int):
        return max(math.sqrt(max(order, 1)), 1.0)

    def tail_envelope(self, order: int, x: float) -> float:
        return float(npoly.polyval(x, self._he_abs[order]) * math.exp(-0.5 * x * x))

    def moment_bound(self, order: int) -> float:
        # |kappa^(j)| <= E|xi^j| for the standard Gaussian spectral density
        j = order
        return float(2 ** (j / 2) * math.gamma((j + 1) / 2) / math.sqrt(math.pi))

    def f_tail_integral_bound(self, T: float):
        if T < 20.0:
            return None
        return _f_tail_bound_from_envelopes(self, T)

    def default_quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(truncation_radius=40.0, abs_tolerance=1e-8)


class SincModel(CorrelationModel):
    """kappa(x) = sinc(sqrt(3) x), the band-limited correlation on [-sqrt3, sqrt3]."""

    kind = "sinc-sqrt3"
    max_derivative_order = 12
    internal_order_cap = 40
    parameters: dict = {}

    _SERIES_TERMS = 60

    def __init__(self):
        # B_l = sum_{m<l} C(l, m) (l-m)!  bounds the non-leading Leibniz terms
        self._leibniz_b = [
            float(sum(math.comb(l, m) * math.factorial(l - m) for m in range(l)))
            for l in range(self.max_derivative_order + 1)
        ]

    def _sinc_deriv_series(self, u: np.ndarray, j: int, scale: float
                           ) -> np.ndarray:
        # term k: scale * (-1)^k u^(2k-j) / ((2k+1) (2k-j)!); alternating
        # with ~e^|u| cancellation, so only used below the per-order cut.
        # Folding the 3^(j/2) scale into the coefficient keeps the values at
        # u = 0 exact (e.g. kappa''(0) = 3 / (3 0!) = -1 without rounding).
        k0 = (j + 1) // 2
        acc = np.zeros_like(u)
        upow = u ** (2 * k0 - j)
        u2 = u * u
        for k in range(k0, k0 + self._SERIES_TERMS):
            fact = math.factorial(2 * k - j)
            coeff = 0.0 if fact > 1e300 else \
                (-1.0) ** k * scale / ((2 * k + 1) * fact)
            acc = acc + coeff * upow
            upow = upow * u2
        return acc

    def _sinc_deriv_closed(self, u: np.ndarray, j: int) -> np.ndarray:
        # Leibniz on sin(u) * u^{-1}: loses ~ j! / |u|^j of precision, so it
        # is only used beyond the per-order cut where that factor is tame
        acc = np.zeros_like(u)
        for m in range(j + 1):
            c = math.comb(j, m) * (-1.0) ** (j - m) * math.factorial(j - m)
            acc = acc + c * np.sin(u + 0.5 * math.pi * m) / u ** (j - m + 1)
        return acc

    @staticmethod
    def _series_cut(j: int) -> float:
        return max(0.5, 0.3 * j)

    def derivs(self, x, max_order: int) -> np.ndarray:
        xb, scalar = _as_batch(x)
        u = _SQRT3 * xb
        out = np.empty((max_order + 1, xb.size))
        for j in range(max_order + 1):
            scale = float(3.0 ** (j // 2)) * (_SQRT3 if j % 2 else 1.0)
            small = np.abs(u) < self._series_cut(j)
            col = np.empty_like(u)
            if np.any(small):
                col[small] = self._sinc_deriv_series(u[small], j, scale)
            if np.any(~small):
                col[~small] = scale * self._sinc_deriv_closed(u[~small], j)
            out[j] = col
        return out[:, 0] if scalar else out

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
            acc = np.zeros_like(us)
            term = us * us  # u^2
            u2 = us * us
            for k in range(1, 20):
                acc = acc + (-1.0) ** (k + 1) * term / math.factorial(2 * k + 1)
                term = term * u2
            out[small] = acc
        if np.any(~small):
            ul = u[~small]
            out[~small] = 1.0 - np.sin(ul) / ul
        return out[0] if scalar else out

    def envelope_start(self, order: int):
        return 1.0 / _SQRT3

    def tail_envelope(self, order: int, x: float) -> float:
        u = _SQRT3 * x
        return float(_SQRT3 ** order * (1.0 / u + self._leibniz_b[order] / (u * u)))

    def moment_bound(self, order: int) -> float:
        # spectral density uniform on [-sqrt3, sqrt3]: E|xi|^j = 3^{j/2}/(j+1)
        return float(3.0 ** (order / 2) / (order + 1))

    def f_tail_integral_bound(self, T: float):
        if T < 20.0:
            return None
        return _f_tail_bound_from_envelopes(self, T)

    def default_quadrature(self) -> QuadratureSpec:
        # kappa'' decays only like 1/x here; certifying 1e-8 would need a
        # truncation near 1e8, so the default certifies 1e-3 instead.
        return QuadratureSpec(truncation_radius=4000.0, abs_tolerance=1e-3)


class CauchyModel(CorrelationModel):
    """kappa(x) = (1 + x^2/2)^(-1); derivatives via the complex pole pair."""

    kind = "cauchy"
    max_derivative_order = 12
    internal_order_cap = 48
    parameters: dict = {}

    def derivs(self, x, max_order: int) -> np.ndarray:
        xb, scalar = _as_batch(x)
        out = np.empty((max_order + 1, xb.size))
        r2 = xb * xb + 2.0
        r = np.sqrt(r2)
        theta = np.arctan2(-_SQRT2, xb)
        for j in range(max_order + 1):
            # kappa^(j)(x) = sqrt2 (-1)^j j! Im (x - i sqrt2)^{-(j+1)}
            sign = -1.0 if j % 2 else 1.0
            out[j] = (_SQRT2 * sign * math.factorial(j)
                      * np.sin(-(j + 1) * theta) / r ** (j + 1))
        zero = xb == 0.0
        if np.any(zero):
            for j in range(max_order + 1):
                if j % 2:
                    out[j, zero] = 0.0
                else:
                    m = j // 2
                    out[j, zero] = (-1.0) ** m * math.factorial(j) / 2.0 ** m
        return out[:, 0] if scalar else out

    def spectral_density(self, xi):
        return np.exp(-_SQRT2 * np.abs(np.asarray(xi, dtype=float))) / _SQRT2

    def one_minus_kappa(self, x):
        t = 0.5 * np.asarray(x, dtype=float) ** 2
        return t / (1.0 + t)

    def envelope_start(self, order: int):
        return 0.5

    def tail_envelope(self, order: int, x: float) -> float:
        # |Im (x - i sqrt2)^{-(j+1)}| <= (j+1) sqrt2 / (x (x^2+2)^{(j+1)/2})
        return float(2.0 * math.factorial(order + 1)
                     / (x * (x * x + 2.0) ** ((order + 1) / 2)))

    def moment_bound(self, order: int) -> float:
        # density exp(-sqrt2 |xi|)/sqrt2: E|xi|^j = j! 2^{-j/2}
        return float(math.factorial(order) / 2 ** (order / 2))

    def f_tail_integral_bound(self, T: float):
        if T < 20.0:
            return None
        return _f_tail_bound_from_envelopes(self, T)

    def default_quadrature(self) -> QuadratureSpec:
        # |F| tail ~ x^-4: truncation 500 certifies well below 1e-8
        return QuadratureSpec(truncation_radius=500.0, abs_tolerance=1e-8)


def _f_tail_bound_from_envelopes(model: CorrelationModel, T: float) -> float:
    """Integral bound on the two-point excess tail from derivative envelopes.

    Uses |F(z)| <= pi^-2 (kappa^2 + 2 kappa'^2 + 1.3 kappa''^2) once all three
    envelopes are below 0.1, and integrates the squared envelopes on [T, inf)
    by quadrature plus an explicit power/exponential tail.
    """
    from scipy.integrate import quad

    weights = (1.0, 2.0, 1.3)
    if any(model.tail_envelope(l, T) > 0.1 for l in range(3)):
        return None
    total = 0.0
    hi = 50.0 * T
    for l, w in enumerate(weights):
        val, _ = quad(lambda t, l=l: model.tail_envelope(l, t) ** 2, T, hi, limit=400)
        # beyond hi every preset envelope is <= c/t: integral bounded by env(hi)^2*hi
        total += w * (val + model.tail_envelope(l, hi) ** 2 * hi)
    return total / math.pi ** 2


# ---------------------------------------------------------------------------
# Spectral densities and table-backed models
# ---------------------------------------------------------------------------

_TAIL_KINDS = ("gaussian", "power", "none")


@dataclass(frozen=True)
class SpectralDensity:
    """An even non-negative density, given as a table or a callable.

    The tail declares how the density decays beyond `xi_max`:
    gaussian -> c * exp(-a xi^2), power -> c * |xi|^(-m), none -> 0.
    """

    xi: np.ndarray | None = None
    g: np.ndarray | None = None
    func: object = None
    xi_max: float = 0.0
    tail_kind: str = "none"
    tail_params: tuple = ()

    def __post_init__(self):
        if self.tail_kind not in _TAIL_KINDS:
            raise ConfigError(f"unknown tail kind {self.tail_kind!r}")
        if self.xi is not None:
            xi = np.asarray(self.xi, dtype=float)
            g = np.asarray(self.g, dtype=float)
            if xi.ndim != 1 or xi.shape != g.shape or xi.size < 2:
                raise ConfigError("spectral table needs matching 1-D xi and g arrays")
            if np.any(np.diff(xi) <= 0):
                raise ConfigError("spectral grid must be strictly increasing")
            if np.any(g < 0):
                raise ConfigError("spectral density must be non-negative")
            object.__setattr__(self, "xi", xi)
            object.__setattr__(self, "g", g)
            object.__setattr__(self, "xi_max", float(xi[-1]))
        elif self.func is None:
            raise ConfigError("need either a table or a callable density")

    def density(self, xi):
        """Evaluate the density at |xi| (tables are linearly interpolated)."""
        a = np.abs(np.asarray(xi, dtype=float))
        if self.func is not None:
            core = np.asarray(self.func(a), dtype=float)
        else:
            core = np.interp(a, self.xi, self.g, right=0.0)
        out = np.where(a <= self.xi_max, core, 0.0)
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
        if self.tail_kind == "power":
            c, m = self.tail_params
            return max(int(math.floor(m - 1)) - 1, 0)
        return 12


class SpectralTableModel(CorrelationModel):
    """Correlation model induced by an even spectral density via quadrature.

    kappa^(j)(x) is the j-th moment-weighted Fourier-cosine/sine transform of
    the density, integrated on oscillation-adapted panels.
    """

    kind = "spectral-table"

    def __init__(self, density: SpectralDensity, *, tail_tol: float = 1e-12,
                 label: str = "spectral-table"):
        self._density = density
        self.kind = label
        self.max_derivative_order = min(12, density.max_finite_moment())
        self.internal_order_cap = self.max_derivative_order
        self.parameters = {"tail_kind": density.tail_kind}
        self._T = self._pick_truncation(tail_tol)
        self._kinks = self._panel_edges()
        self._gl_nodes, self._gl_weights = np.polynomial.legendre.leggauss(8)
        self._moments = [self._moment(j) for j in range(self.max_derivative_order + 1)]

    # -- construction helpers ------------------------------------------
    def _pick_truncation(self, tol: float) -> float:
        T = max(self._density.xi_max, 1.0)
        if self._density.tail_kind == "none":
            return self._density.xi_max
        jmax = self.max_derivative_order
        for _ in range(200):
            if self._density.tail_moment_bound(jmax, T) < tol:
                return T
            T *= 1.25
        raise DegenerateDensity("cannot truncate spectral tail to tolerance")

    def _panel_edges(self) -> np.ndarray:
        edges = [0.0, self._T]
        if self._density.xi is not None:
            edges.extend(float(t) for t in self._density.xi if 0.0 < t < self._T)
        elif 0.0 < self._density.xi_max < self._T:
            edges.append(self._density.xi_max)
        return np.unique(np.asarray(edges))

    def _panels_for(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes/weights resolving e^{i x xi} on [0, T]."""
        max_len = math.pi / (4.0 * (abs(x) + 1.0))
        nodes, weights = [], []
        for lo, hi in zip(self._kinks[:-1], self._kinks[1:]):
            nsub = max(1, int(math.ceil((hi - lo) / max_len)))
            sub = np.linspace(lo, hi, nsub + 1)
            mid = 0.5 * (sub[:-1] + sub[1:])[:, None]
            half = 0.5 * (sub[1:] - sub[:-1])[:, None]
            nodes.append((mid + half * self._gl_nodes[None, :]).ravel())
            weights.append((half * self._gl_weights[None, :]).ravel())
        return np.concatenate(nodes), np.concatenate(weights)

    def _moment(self, j: int) -> float:
        # full-line absolute moment of the even density
        nodes, weights = self._panels_for(0.0)
        return 2.0 * float(np.sum(weights * nodes ** j
                                  * self._density.density(nodes)))

    # -- CorrelationModel interface -------------------------------------
    def derivs(self, x, max_order: int) -> np.ndarray:
        xb, scalar = _as_batch(x)
        out = np.empty((max_order + 1, xb.size))
        for col, xv in enumerate(xb):
            nodes, weights = self._panels_for(float(xv))
            dens = weights * self._density.density(nodes)
            cos_part = np.cos(xv * nodes)
            sin_part = np.sin(xv * nodes)
            for j in range(max_order + 1):
                m, odd = divmod(j, 2)
                trig = sin_part if odd else cos_part
                sign = (-1.0) ** (m + odd)
                out[j, col] = sign * 2.0 * np.sum(dens * nodes ** j * trig)
        return out[:, 0] if scalar else out

    def spectral_density(self, xi):
        return self._density.density(xi)

    def one_minus_kappa(self, x):
        xb, scalar = _as_batch(x)
        out = np.empty(xb.size)
        for col, xv in enumerate(xb):
            nodes, weights = self._panels_for(float(xv))
            dens = weights * self._density.density(nodes)
            out[col] = 4.0 * np.sum(dens * np.sin(0.5 * xv * nodes) ** 2)
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


def eval_kappa_derivs(model: CorrelationModel, x, max_order: int) -> np.ndarray:
    """kappa(x), kappa'(x), ..., kappa^(max_order)(x)."""
    if max_order < 0:
        raise ConfigError("max_order must be >= 0")
    if max_order > model.max_derivative_order:
        raise OrderUnavailable(
            f"order {max_order} exceeds declared smoothness "
            f"{model.max_derivative_order} of {model.kind}")
    return model.derivs(x, max_order)


def tail_norm(model: CorrelationModel, k: int, eta: float) -> float:
    """sup over orders l <= k and |x| >= eta of |kappa^(l)(x)|.

    Dense grid search on [eta, R] with the grid step of eta/1000 clamped to
    [1e-3, 1e-1], closed by the model's monotone tail envelope at R (models
    without an envelope fall back to their global moment bound, which is a
    valid but non-decaying sup bound).
    """
    if k > model.max_derivative_order:
        raise OrderUnavailable(
            f"order {k} exceeds declared smoothness of {model.kind}")
    if eta < 0:
        raise ConfigError("eta must be >= 0")
    step = min(max(eta / 1000.0, 1e-3), 1e-1)

    starts = [model.envelope_start(l) for l in range(k + 1)]
    if any(s is None for s in starts):
        # no certified envelope: bounded sup via spectral moments
        R = max(eta + 60.0, 80.0)
        grid = _grid(eta, R, step, cap=4000)
        sup_grid = float(np.max(np.abs(model.derivs(grid, k)))) if grid.size else 0.0
        return max(sup_grid, max(model.moment_bound(l) for l in range(k + 1)))

    R = max([eta + step] + [s for s in starts])
    while True:
        grid = _grid(eta, R, step, cap=400_000)
        sup_grid = float(np.max(np.abs(model.derivs(grid, k))))
        env = max(model.tail_envelope(l, R) for l in range(k + 1))
        if env <= sup_grid or R > 1e5:
            return max(sup_grid, env)
        R *= 1.7


def _grid(lo: float, hi: float, step: float, cap: int) -> np.ndarray:
    n = int((hi - lo) / step) + 1
    if n > cap:
        step = (hi - lo) / cap
        n = cap + 1
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

    if raw.xi is not None:
        scaled = SpectralDensity(
            xi=raw.xi / s, g=c * raw.g, xi_max=raw.xi_max / s,
            tail_kind=raw.tail_kind, tail_params=_scale_tail(raw, c, s))
    else:
        fn = raw.func
        scaled = SpectralDensity(
            func=lambda t, fn=fn, c=c, s=s: c * np.asarray(fn(s * t), dtype=float),
            xi_max=raw.xi_max / s,
            tail_kind=raw.tail_kind, tail_params=_scale_tail(raw, c, s))
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
    try:
        xi = np.asarray(doc["xi"], dtype=float)
        g = np.asarray(doc["g"], dtype=float)
    except KeyError as exc:
        raise ConfigError(f"spectral table missing key {exc}") from exc
    tail = doc.get("tail", {"kind": "none", "params": []})
    kind = tail.get("kind", "none")
    if kind not in _TAIL_KINDS:
        raise ConfigError(f"unknown tail kind {kind!r}")
    dens = SpectralDensity(xi=xi, g=g, tail_kind=kind,
                           tail_params=tuple(tail.get("params", ())))
    return normalize_from_spectral_density(dens, label=f"spectral:{path}")
