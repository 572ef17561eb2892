"""Shared property checks for the divided-difference machinery.

Each runner draws its own instances from a seeded generator and returns the
worst observed discrepancy, so the unit tests and the acceptance suite can
run the same checks at different sample counts.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial

from gausszeros.divdiff import (_kernel_matrix, _newton_rows, _taylor_rows,
                                divided_diff_vector, double_divided_diff,
                                multiplicities, newton_matrix,
                                snap_configuration)


def _random_poly(rng, deg: int) -> Polynomial:
    return Polynomial(rng.uniform(-2.0, 2.0, deg + 1))


def _eval_vector(poly: Polynomial, pts: np.ndarray) -> np.ndarray:
    c = multiplicities(pts)
    return np.array([poly.deriv(ci)(x) / math.factorial(ci) if ci else poly(x)
                     for ci, x in zip(c, pts)])


def _dd_last(poly: Polynomial, pts) -> float:
    pts = np.asarray(pts, dtype=float)
    return float(divided_diff_vector(pts, _eval_vector(poly, pts))[-1])


def _well_spread(rng, count: int, lo=-1.5, hi=1.5, gap=0.15) -> np.ndarray:
    """Random nodes with open pairwise gaps.

    The identities under test are exact; open gaps keep the value-route
    conditioning (eps / gap^order) far below the asserted tolerances.
    """
    while True:
        pts = rng.uniform(lo, hi, count)
        if np.min(np.abs(np.subtract.outer(pts, pts)) + np.eye(count)) >= gap:
            return pts


def worst_permutation_symmetry(rng, n_cases: int) -> float:
    """max relative |[f]_p(sigma x) - [f]_p(x)| over random polynomials/configs."""
    worst = 0.0
    for _ in range(n_cases):
        p = int(rng.integers(2, 6))
        pts = _well_spread(rng, p)
        poly = _random_poly(rng, p + 2)
        base = _dd_last(poly, pts)
        perm = rng.permutation(pts)
        worst = max(worst, abs(_dd_last(poly, perm) - base) / max(1.0, abs(base)))
    return worst


def worst_recursion_consistency(rng, n_cases: int) -> float:
    """max relative defect of the divided-difference quotient recursion."""
    worst = 0.0
    for _ in range(n_cases):
        p = int(rng.integers(2, 6))
        pts = _well_spread(rng, p + 1)
        poly = _random_poly(rng, p + 2)
        lhs = _dd_last(poly, pts)
        hi = _dd_last(poly, np.append(pts[:p - 1], pts[p]))
        lo = _dd_last(poly, pts[:p])
        rhs = (hi - lo) / (pts[p] - pts[p - 1])
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    return worst


def worst_rolle_excess(rng, n_cases: int) -> float:
    """max of |[f]_p(x)| / (sup |f^(p-1)| / (p-1)!) - 1 over instances."""
    worst = -math.inf
    for _ in range(n_cases):
        p = int(rng.integers(2, 6))
        pts = rng.uniform(-2.0, 2.0, p)
        poly = _random_poly(rng, p + 3)
        val = abs(_dd_last(poly, pts))
        grid = np.linspace(pts.min(), pts.max(), 2001)
        bound = np.max(np.abs(poly.deriv(p - 1)(grid))) / math.factorial(p - 1)
        worst = max(worst, val - bound * (1 + 1e-10))
    return worst


def worst_diagonal_continuity(rng, n_cases: int) -> float:
    """Checks [f]_p(z + eps u) -> f^(p-1)(z)/(p-1)! with shrinking eps.

    Returns the worst decay ratio gap(1e-4) / gap(1e-2) after requiring an
    order-of-magnitude approach across the sequence eps = 1e-2, 1e-3, 1e-4
    (strict pointwise monotonicity can fail legitimately when two expansion
    orders cancel at one eps, so the check is on the overall decay).
    Orders are kept at p <= 3: from values alone, a p-th difference at
    spacing eps carries an irreducible eps_machine / eps^(p-1) uncertainty,
    which for p >= 4 would drown the limit being verified (derivative data,
    i.e. the confluent branch, is the stable representation there).
    """
    worst = 0.0
    for _ in range(n_cases):
        p = int(rng.integers(2, 4))
        z = float(rng.uniform(-1.0, 1.0))
        u = _well_spread(rng, p, lo=-1.0, hi=1.0, gap=0.3)
        poly = _random_poly(rng, p + 3)
        target = poly.deriv(p - 1)(z) / math.factorial(p - 1)
        gaps = [abs(_dd_last(poly, z + eps * u) - target)
                for eps in (1e-2, 1e-3, 1e-4)]
        if gaps[0] < 1e-4:  # nearly flat direction: nothing left to decay
            continue
        if not (gaps[1] <= 0.5 * gaps[0] + 1e-12
                and gaps[2] <= 0.05 * gaps[0] + 1e-12):
            return math.inf
        worst = max(worst, gaps[-1] / gaps[0])
    return worst


def route_matrices(model, x, y):
    """Double divided differences of kappa over the prefixes of x and y.

    Returns (taylor, newton, tail, rounding): the matrix from the Taylor
    rows of both configurations and from their Newton rows, all out of one
    atom covariance matrix, with the series tail (terms of the top three
    total orders) and a Newton rounding bound eps |A| M |A|^T.  M holds
    the global bounds |kappa^(a+b)| <= moment_bound(a + b) in place of
    |K|: `derivs` is accurate to eps at that scale, not relative to each
    value (sinc near a zero of its kernel, say).
    """
    cap = model.internal_order_cap
    (tx, mx, n), (ty, my, _) = _taylor_rows(x, cap), _taylor_rows(y, cap)
    (nx, sx, ox), (ny, sy, oy) = _newton_rows(x), _newton_rows(y)
    # prefix rows only; a Newton prefix row is zero on the extension atoms
    tx, ty = tx[:x.size], ty[:y.size]
    nx, sx, ox = nx[:x.size, :x.size], sx[:x.size], ox[:x.size]
    ny, sy, oy = ny[:y.size, :y.size], sy[:y.size], oy[:y.size]
    kmat = _kernel_matrix(model, np.concatenate([mx, my, sx, sy]),
                          np.concatenate([n, n, ox, oy]), cap)
    k_t = kmat[:cap + 1, cap + 1:2 * cap + 2]
    k_n = kmat[2 * cap + 2:2 * cap + 2 + x.size, 2 * cap + 2 + x.size:]
    top = np.add.outer(n, n) > cap - 3
    tail = np.abs(tx) @ np.where(top, np.abs(k_t), 0.0) @ np.abs(ty).T
    moments = np.array([model.moment_bound(j) for j in range(2 * cap + 1)])
    rounding = np.finfo(float).eps * (
        np.abs(nx) @ moments[np.add.outer(ox, oy)] @ np.abs(ny).T)
    return tx @ k_t @ ty.T, nx @ k_n @ ny.T, tail, rounding


def worst_double_diff_symmetry(model, rng, n_cases: int) -> float:
    """Differencing in x first equals differencing in y first."""
    from scipy.linalg import solve_triangular

    worst = 0.0
    for _ in range(n_cases):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        x = snap_configuration(np.sort(rng.uniform(-2.0, 2.0, k)))
        y = snap_configuration(np.sort(rng.uniform(-2.0, 2.0, l)))
        # confluent evaluations of kappa(y - x), as the Newton matrices expect
        cx, cy = multiplicities(x), multiplicities(y)
        fact = np.array([math.factorial(c) for c in np.concatenate([cx, cy])])
        kmat = _kernel_matrix(model, np.concatenate([x, y]), np.concatenate([cx, cy]),
                              model.max_derivative_order)
        cross = (kmat / np.outer(fact, fact))[:k, k:]
        mx, my = newton_matrix(x), newton_matrix(y)
        rows_first = solve_triangular(
            my, solve_triangular(mx, cross, lower=True).T, lower=True).T
        cols_first = solve_triangular(
            mx, solve_triangular(my, cross.T, lower=True).T, lower=True)
        worst = max(worst, float(np.abs(rows_first - cols_first).max()))
        # symmetric kernel: swapping the configurations gives the same value
        worst = max(worst, abs(double_divided_diff(model, x, y)
                               - double_divided_diff(model, y, x)))
    return worst


def run_all(model, seed: int, n_cases: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "permutation": worst_permutation_symmetry(rng, n_cases),
        "recursion": worst_recursion_consistency(rng, n_cases),
        "rolle": worst_rolle_excess(rng, n_cases),
        "continuity": worst_diagonal_continuity(rng, n_cases),
        "double_symmetry": worst_double_diff_symmetry(model, rng, n_cases),
    }
