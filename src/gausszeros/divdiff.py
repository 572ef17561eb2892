"""Newton-basis interpolation machinery for possibly repeated nodes.

A configuration is an ordered array of real nodes, repetitions allowed.
Repeated nodes switch the corresponding evaluation entries to derivative
data (confluent/Hermite interpolation), which keeps every quantity here
finite and well-conditioned on and near the diagonal.

Covariances of divided differences of f are built one way: each is a row
of coefficients over atoms f^(n)(t), and a set of them has covariance
A K A^T, K[i, j] = (-1)^a kappa^(a+b)(t_j - t_i) from one `derivs` call.
Every block contributes the rows of its prefixes [f](z_1..z_p) and of its
one-node extensions [f](z_1..z_s, z_a); `double_divided_diff_matrix` reads
the prefix cross block of that covariance.  Newton rows (one recurrence
over the block, snapped by the public entry point) divide by node gaps;
Taylor rows (f expanded at the block centre to `internal_order_cap`, K
truncated above it) divide by nothing.  A block of span in (0, TAYLOR_SPAN]
takes the route with the smaller error estimate (`_dd_matrix_taylor`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, OrderUnavailable
from .partitions import cluster_partition

__all__ = [
    "snap_configuration",
    "multiplicities",
    "newton_matrix",
    "divided_diff_vector",
    "double_divided_diff_matrix",
    "double_divided_diff",
    "SNAP_TOL",
]

SNAP_TOL = 1e-10
_SNAP_ETA = math.nextafter(SNAP_TOL, 0.0)  # cluster scale: gaps < SNAP_TOL join
TAYLOR_SPAN = 0.6  # max block span that may take the series route
_EPS = np.finfo(float).eps
_INV_FACT = np.array([1.0 / math.factorial(n) for n in range(171)])


def snap_configuration(points) -> np.ndarray:
    """Merge nodes closer than SNAP_TOL onto the earliest node of their chain.

    The confluent branch is exact for coincident nodes while the
    distinct-node branch is catastrophically ill-conditioned below SNAP_TOL,
    so near-ties are resolved to exact ties before any matrix is built.
    The chains are the blocks of the cluster partition at the float just
    below SNAP_TOL (gaps < SNAP_TOL join); input order is kept.
    """
    x = np.array(points, dtype=float)
    for block in cluster_partition(x, _SNAP_ETA).blocks:
        x[list(block)] = x[block[0]]
    return x


def multiplicities(points) -> np.ndarray:
    """c_i = number of earlier nodes equal to node i (after snapping)."""
    x = snap_configuration(points)
    return np.tril(x[:, None] == x, -1).sum(axis=1)


def newton_matrix(points) -> np.ndarray:
    """Matrix of the evaluation map in the Newton polynomial basis.

    Column j holds the evaluation data of prod_{l<j}(X - x_l); entry (i, j)
    is its c_i-th derivative at x_i divided by c_i!.  Lower triangular with
    diagonal prod_{l<i, x_l != x_i}(x_i - x_l), hence always invertible.
    """
    x = snap_configuration(points)
    return _newton_basis(x, x)[0][:, :-1]


def _newton_basis(x: np.ndarray, sites: np.ndarray):
    """Entry (i, j), j = 0..len(x): the c_i-th Taylor coefficient at sites_i
    of prod_{l<j}(X - x_l), c_i the number of x_l, l < i, equal to sites_i;
    and the orders c."""
    c = np.tril(sites[:, None] == x, -1).sum(axis=1)
    # t[i, r]: r-th Taylor coefficient at sites_i of the current Newton
    # polynomial; multiplying by (X - x_j) maps t_r to t_{r-1} + (sites_i - x_j) t_r
    t = np.zeros((sites.size, int(c.max()) + 1))
    t[:, 0] = 1.0
    out = np.empty((sites.size, x.size + 1))
    for j in range(x.size):
        out[:, j] = t[np.arange(sites.size), c]
        nxt = (sites - x[j])[:, None] * t
        nxt[:, 1:] += t[:, :-1]
        t = nxt
    out[:, -1] = t[np.arange(sites.size), c]
    return out, c


def divided_diff_vector(points, evals) -> np.ndarray:
    """Divided differences ([f]_1(x_1), ..., [f]_p(x_1..x_p)) from evaluation data.

    `evals` must hold the confluent evaluation of f at the configuration:
    entry i is f^{(c_i)}(x_i) / c_i!.  Solved by forward substitution
    against the lower-triangular Newton matrix.
    """
    m = newton_matrix(points)
    b = np.asarray(evals, dtype=float)
    if b.shape != (m.shape[0],):
        raise ConfigError("evaluation vector length must match the configuration")
    return _forward_solve(m, b)


def _forward_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m y = b for lower-triangular m, one row at a time."""
    y = np.zeros(b.shape)
    for i in range(m.shape[0]):
        y[i] = (b[i] - m[i, :i] @ y[:i]) / m[i, i]
    return y


def _taylor_rows(z: np.ndarray, cap: int):
    """Series rows of the prefixes of z, then of its one-node extensions.

    [f](z_1..z_p) = sum_{n <= cap} f^(n)(m) h_{n-p+1}(z_1 - m..z_p - m) / n!,
    m the centre and h_q complete homogeneous, so row p has the generating
    function x^(p-1) prod_{i <= p} 1 / (1 - (z_i - m) x) before the 1/n!.
    Returns the rows, sites and orders of the atoms f^(n)(m).
    """
    m = 0.5 * (z.min() + z.max())
    n = np.arange(cap + 1)
    rows, shifted = [], (n == 0) * 1.0
    for t in z - m:
        rows.append(np.convolve(shifted, t ** n)[:cap + 1])
        shifted = np.r_[0.0, rows[-1][:-1]]
    rows += [np.convolve(shifted, t ** n)[:cap + 1] for t in z - m]
    return np.array(rows) * _INV_FACT[n], np.full(cap + 1, m), n


def _newton_rows(z: np.ndarray):
    """Newton rows of the prefixes of z, then of its one-node extensions.

    Row r is row r of the inverse Newton matrix, each entry divided by the
    c! of its atom f^(c)(t).  Extension a appends z_a once more, whose
    entry is the atom f^(mu)(z_a), mu the number of nodes of z equal to z_a:
    with [r, d] the bordering row of the extended Newton matrix, the last
    row of [[M, 0], [r, d]]^-1 is [-r M^-1 / d, 1 / d].
    """
    s, sites = z.size, np.concatenate([z, z])
    basis, orders = _newton_basis(z, sites)  # M, then every border
    rows = np.zeros((2 * s, 2 * s))
    rows[:s, :s] = _forward_solve(basis[:s, :s], np.eye(s))
    for a in range(s):
        border = basis[s + a]
        rows[s + a, :s] = -(border[:s] @ rows[:s, :s]) / border[s]
        rows[s + a, s + a] = 1.0 / border[s]
    return rows * _INV_FACT[orders], sites, orders


def _kernel_matrix(model, sites, orders, cap: int, anchors=0.0) -> np.ndarray:
    """K[i, j] = E f^(a_i)(t_i) f^(a_j)(t_j), 0 where a_i + a_j > cap.

    Atom i sits at t_i = anchors[i] + sites[i]; lags are the anchor
    difference plus the site difference, so atoms far apart keep their
    offsets.  One `derivs` call on the distinct |lags|; kappa is even, so
    kappa^(j)(-x) = (-1)^j kappa^(j)(x).
    """
    orders = np.asarray(orders, dtype=int)
    sites = np.asarray(sites, dtype=float)
    anchors = np.broadcast_to(np.asarray(anchors, dtype=float), sites.shape)
    lag = (anchors[None, :] - anchors[:, None]) + (sites[None, :] - sites[:, None])
    mags, lag_idx = np.unique(np.abs(lag), return_inverse=True)
    total = orders[:, None] + orders[None, :]
    top = min(cap, int(total.max()))
    vals = model.derivs(mags, top)[np.minimum(total, top), lag_idx.reshape(lag.shape)]
    odd = (orders[:, None] + np.where(lag < 0, total, 0)) % 2 == 1
    return np.where(total > cap, 0.0, np.where(odd, -vals, vals))


def _dd_matrix_taylor(rows_t: np.ndarray, k_tt: np.ndarray,
                      rows_n: np.ndarray, k_nn: np.ndarray) -> np.ndarray | None:
    """Taylor rows of one tight block, or None when it takes the Newton route.

    Judged on the block's own covariance: the series tail (terms of the
    top three total orders) against the Newton rounding bound
    eps |A| |K| |A|^T, both scaled by the cancellation-free variances.
    """
    n = np.arange(rows_t.shape[1])
    top = np.add.outer(n, n) > n[-1] - 3
    at, an = np.abs(rows_t), np.abs(rows_n)
    magnitude = np.diag(at @ np.abs(k_tt) @ at.T)
    scale = np.sqrt(np.outer(magnitude, magnitude))
    tail = at @ np.where(top, np.abs(k_tt), 0.0) @ at.T / scale
    rounding = _EPS * (an @ np.abs(k_nn) @ an.T) / scale
    return rows_t if tail.max() <= rounding.max() else None


def _block_covariance(model, blocks):
    """Covariance of the blocks' prefixes [f](z_1..z_p), block by block,
    then of their extensions [f](z_1..z_s, z_a); and each block's route,
    "taylor" or "newton".

    Each snapped block is built on its offsets from its leftmost node, so
    its rounding stays at its own span.  At span 0 (one point, or coincident
    points) Newton rows divide by nothing, so no Taylor candidate is built.
    """
    cap = model.internal_order_cap
    anchors = [z.min() for z in blocks]
    # candidate rows of each block: Newton, then Taylor for a tight block
    cands = [[_newton_rows(z - a)]
             + ([_taylor_rows(z - a, cap)] if 0 < np.ptp(z) <= TAYLOR_SPAN else [])
             for z, a in zip(blocks, anchors)]
    # prefix orders only: assemble_context bounds the extensions' by its 2n
    need = 2 * max(int(c[0][2][:z.size].max()) for c, z in zip(cands, blocks))
    if need > model.max_derivative_order:
        raise OrderUnavailable(
            f"divided differences over these blocks need kappa^({need}), "
            f"model {model.kind} declares {model.max_derivative_order}")
    flat = [(c, a) for cs, a in zip(cands, anchors) for c in cs]
    K = _kernel_matrix(model, np.concatenate([c[1] for c, _ in flat]),
                       np.concatenate([c[2] for c, _ in flat]), cap,
                       np.concatenate([np.full(c[1].size, a) for c, a in flat]))
    edges = np.cumsum([0] + [c[1].size for c, _ in flat])
    cols = iter([slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])
    chosen, routes = [], []
    for cs in cands:
        rows, col, route = cs[0][0], next(cols), "newton"
        if len(cs) == 2:
            t_col = next(cols)
            rows_t = _dd_matrix_taylor(cs[1][0], K[t_col, t_col], rows, K[col, col])
            if rows_t is not None:
                rows, col, route = rows_t, t_col, "taylor"
        routes.append(route)
        chosen.append(np.zeros((rows.shape[0], K.shape[0])))
        chosen[-1][:, col] = rows
    sizes = [z.size for z in blocks]
    A = np.vstack([c[:s] for c, s in zip(chosen, sizes)]
                  + [c[s:] for c, s in zip(chosen, sizes)])
    cov = A @ K @ A.T
    return 0.5 * (cov + cov.T), tuple(routes)


def double_divided_diff_matrix(model, x_points, y_points) -> np.ndarray:
    """All double divided differences of kappa over prefixes of two configurations.

    Entry (k-1, l-1) is the divided difference of the correlation kernel
    taken over (x_1..x_k) in its first slot and (y_1..y_l) in the second;
    it equals the covariance of the k-th and l-th divided differences of
    the process at the two configurations.  Each configuration takes the
    Taylor or the Newton route as described in the module docstring; the
    matrix is the prefix cross block of their joint covariance.
    """
    x = snap_configuration(x_points)
    y = snap_configuration(y_points)
    if x.size + y.size - 2 > model.max_derivative_order:
        raise OrderUnavailable(
            f"order ({x.size}, {y.size}) differences need kappa^"
            f"({x.size + y.size - 2}), model {model.kind} declares "
            f"{model.max_derivative_order}")
    cov, _ = _block_covariance(model, [x, y])
    return cov[:x.size, x.size:x.size + y.size]


def double_divided_diff(model, x_points, y_points) -> float:
    """The full-order double divided difference of kappa (bottom-right entry)."""
    return float(double_divided_diff_matrix(model, x_points, y_points)[-1, -1])
