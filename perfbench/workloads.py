"""Seed-generated job lists of the benchmark workloads, and their checks.

A job is one call into the public entry point behind a CLI command
(`rho`, `vanishing`, `clustering`, `sigma2`, `fcurve`, `moments`,
`simulate`), or into `empirical_k_point`.  Its `check` looks at the output
at the error the library states for it and returns the problems found
plus that stated error relative to the answer.  Every random choice comes
from the workload seed: the same seed gives the same jobs, including the
Monte Carlo seeds handed to the library.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from gausszeros import densities, models, partitions, simulation, variance
from gausszeros.conditioning import MonteCarloSpec
from gausszeros.partitions import IndexPartition
from gausszeros.variance import TestFunction

PRESETS = ("bargmann-fock", "sinc-sqrt3", "cauchy")
SIM_THREADS = min(2, os.cpu_count() or 1)
INV_PI = 1.0 / math.pi


@dataclass(frozen=True)
class Job:
    """One user request: `run()` computes, `check(output)` judges it.

    `check` returns (problems, stated relative error).  `tag` groups the
    replicate cost of simulation jobs (R100, R1000, kpoint).
    """

    name: str
    run: object
    check: object
    tag: str = ""


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, list(_BUILDERS).index(workload)])


def _mc_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2 ** 31))


def _rel(err: float, value: float) -> float:
    return abs(err) / abs(value) if value else 0.0


def _four_se(dev: float, se: float, what: str) -> list[str]:
    return [] if abs(dev) <= 4.0 * se else [f"{what} is {dev:.3g}, over 4 SE = {4 * se:.3g}"]


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

SHAPES = ("tight", "spread", "two-cluster")


def configuration(rng: np.random.Generator, k: int, shape: str) -> np.ndarray:
    """k points of one shape, at a seeded position and spacing.

    tight: span 0.5, inside TAYLOR_SPAN, so the series route runs.
    spread: gaps 0.8-0.9; one scale-1 cluster wider than TAYLOR_SPAN, so
      the Newton route runs and pi_k samples one coupled group.
    two-cluster: two clusters of span 0.3 (or single points) 7.5-8.5
      apart, so pi_k splits into groups and adds the common-random-numbers
      coupling correction.
    The spans are fixed so that a job's cost does not depend on the seed.
    """

    def spacing(m: int, span: float) -> np.ndarray:
        gaps = rng.uniform(0.5, 1.5, m)
        return gaps * span / gaps.sum() if m else gaps

    if shape == "tight":
        gaps = spacing(k - 1, 0.5)
    elif shape == "spread":
        gaps = rng.uniform(0.8, 0.9, k - 1)
    else:
        left = k // 2
        gaps = np.concatenate([spacing(left - 1, 0.3), [rng.uniform(7.5, 8.5)],
                               spacing(k - left - 1, 0.3)])
    return rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(gaps)])


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------

def rho_job(model, points, mc: MonteCarloSpec) -> Job:
    """`rho`: rho_k, plus the second partition route for k = 2."""
    pts = np.asarray(points, dtype=float)
    k = pts.size

    def run():
        res = densities.rho_k(model, pts, mc)
        if k != 2:
            return res, None
        other = (IndexPartition.singletons(2)
                 if res.partition_used.num_blocks == 1
                 else IndexPartition.one_block(2))
        return res, densities.rho_with_partition(model, pts, other, mc)

    def check(out):
        res, other = out
        problems = []
        if not (math.isfinite(res.rho) and math.isfinite(res.n_stderr)):
            problems.append("non-finite rho or stderr")
        elif res.rho < -4.0 * res.n_stderr:
            problems.append(f"rho {res.rho:.3g} below -4 SE")
        if k == 1 and abs(res.rho - INV_PI) > 1e-12:
            problems.append(f"rho_1 = {res.rho!r}, expected 1/pi")
        if other is not None and abs(other.rho - res.rho) > 1e-8 * abs(res.rho):
            problems.append(f"k=2 partition routes differ: {res.rho!r} vs {other.rho!r}")
        return problems, _rel(res.n_stderr, res.rho)

    return Job(f"rho/{model.kind}/k{k}", run, check)


def vanishing_job(model, points, mc: MonteCarloSpec, exact: float | None = None) -> Job:
    """`vanishing`: the diagonal limit constant, exact where known."""
    pts = np.asarray(points, dtype=float)

    def check(res):
        problems = []
        if not (math.isfinite(res.value) and res.value >= -4.0 * res.stderr):
            problems.append(f"vanishing constant {res.value!r}")
        if exact is not None and abs(res.value - exact) > 1e-6 * exact:
            problems.append(f"vanishing constant {res.value!r}, expected {exact!r}")
        return problems, _rel(res.stderr, res.value)

    return Job(f"vanishing/{model.kind}/k{pts.size}",
               lambda: densities.vanishing_constant(model, pts, mc), check)


def clustering_job(model, points, partition: IndexPartition,
                   mc: MonteCarloSpec) -> Job:
    """`clustering`: factorization ratio within 10 of its deviation scale."""
    pts = np.asarray(points, dtype=float)

    def check(out):
        ratio, bound = out
        if not (math.isfinite(ratio) and ratio > 0.0 and math.isfinite(bound)):
            return [f"clustering ratio {ratio!r}, bound {bound!r}"], 0.0
        if abs(ratio - 1.0) > 10.0 * bound:
            return [f"|ratio - 1| = {abs(ratio - 1):.3g} > 10 bound {bound:.3g}"], 0.0
        return [], 0.0

    return Job(f"clustering/{model.kind}",
               lambda: densities.clustering_ratio(model, pts, partition, mc), check)


def sigma2_job(model) -> Job:
    """`sigma2`: sigma^2 and its lower bound at the model's default quadrature."""
    tol = model.default_quadrature().abs_tolerance

    def run():
        return variance.sigma_squared(model), variance.sigma_lower_bound(model)

    def check(out):
        s2, lb = out
        problems = []
        if not (math.isfinite(s2) and math.isfinite(lb) and 0.0 < lb <= s2 + tol):
            problems.append(f"sigma2 {s2!r} and lower bound {lb!r} out of order")
        if model.kind == "bargmann-fock":
            oracle = 3.0 / (8.0 * math.pi ** 1.5)
            if abs(lb - oracle) > 1e-6 * oracle:
                problems.append(f"BF lower bound {lb!r}, expected {oracle!r}")
            if not 0.17 <= s2 <= 0.19:
                problems.append(f"BF sigma2 {s2!r} outside [0.17, 0.19]")
        return problems, max(_rel(tol, s2), _rel(tol, lb))

    return Job(f"sigma2/{model.kind}", run, check)


def fcurve_job(model, zmax: float, step: float) -> Job:
    """`fcurve`: two_point_F on the CLI's grid step, 2*step, ..., zmax."""
    zs = [i * step for i in range(1, int(math.floor(zmax / step + 1e-9)) + 1)]

    def check(fs):
        bad = [f for f in fs if not (math.isfinite(f) and f >= -INV_PI ** 2 - 1e-12)]
        return ([f"{len(bad)} F values non-finite or below -1/pi^2"] if bad else []), 0.0

    return Job(f"fcurve/{model.kind}",
               lambda: [variance.two_point_F(model, z) for z in zs], check)


def _moment_rel_err(model, m: float, p: int, R: float) -> float:
    # predicted_covariance certifies |error| <= max(tol, 1e-6) * R; the
    # p = 4 pair sum of [phi]*4 is 3 c^2, so its relative error is 2 tol_c / c
    tol_c = max(model.default_quadrature().abs_tolerance, 1e-6) * max(R, 1.0)
    c = m if p == 2 else math.sqrt(m / 3.0)
    return _rel(p // 2 * tol_c, c)


def predicted_moment_job(model, phi: TestFunction, R: float, p: int = 4) -> Job:
    """`moments`, prediction side: the pair-partition sum for [phi]*p."""

    def check(m):
        problems = [] if math.isfinite(m) and m > 0.0 else [f"prediction {m!r}"]
        return problems, _moment_rel_err(model, m, p, R)

    return Job(f"predict/{model.kind}/{phi.kind}/R{R:g}",
               lambda: partitions.predicted_central_moment(model, [phi] * p, R),
               check)


def moments_run(model, R: float, n: int, seed: int, threads: int):
    """`moments` with --p 2 and --p 4 at once: estimates, then predictions."""
    phi = TestFunction.indicator(0.0, 1.0)
    spec = simulation.SimulationSpec(window_length=R, num_samples=n,
                                     master_seed=seed)
    est = simulation.empirical_moments(model, spec, phi, R, [1, 2, 4],
                                       threads=threads)
    preds = [partitions.predicted_central_moment(model, [phi] * p, R)
             for p in (2, 4)]
    return est, preds


def moments_job(model, R: float, n: int, seed: int, tag: str = "") -> Job:
    """`moments`: the mean-count anchor and positive estimates and predictions."""

    def check(out):
        (m1, m2, m4), preds = out
        problems = []
        vals = [m1.estimate, m2.estimate, m4.estimate, *preds]
        if not all(math.isfinite(v) for v in vals):
            return ["non-finite moment estimate or prediction"], 0.0
        # m1 is the sample mean minus the exact mean R/pi
        se = math.sqrt(max(m2.estimate - m1.estimate ** 2, 0.0) / m1.num_samples)
        problems += _four_se(m1.estimate * math.pi / R, se * math.pi / R,
                             "mean count * pi/R - 1")
        if not (m2.estimate > 0.0 and m4.estimate > 0.0 and min(preds) > 0.0):
            problems.append("non-positive even moment")
        # The bootstrap CI half-widths are left out of the stated error: from
        # 200 replicates the m4 half-width moves by +-30 % with the seed,
        # which would make err_rel_max unsteady across seeds.
        return problems, max(_moment_rel_err(model, v, p, R)
                             for v, p in zip(preds, (2, 4)))

    return Job(f"moments/{model.kind}/R{R:g}",
               lambda: moments_run(model, R, n, seed, SIM_THREADS), check, tag)


def zero_samples_job(model, length: float, n: int, seed: int, tag: str = "") -> Job:
    """`simulate`: zero sets of n replicates on [0, length]."""
    spec = simulation.SimulationSpec(window_length=length, num_samples=n,
                                     master_seed=seed)

    def check(samples):
        if len(samples) != n:
            return [f"{len(samples)} replicates, expected {n}"], 0.0
        counts = np.array([s.zeros.size for s in samples], dtype=float)
        mean = float(counts.mean())
        se = float(counts.std(ddof=1) / math.sqrt(n))
        return _four_se(mean * math.pi / length - 1.0, se * math.pi / length,
                        "mean count * pi/L - 1"), _rel(se, mean)

    return Job(f"simulate/{model.kind}/L{length:g}",
               lambda: simulation.zero_samples(model, spec, threads=SIM_THREADS),
               check, tag)


def k_point_job(model, points, epsilon: float, n: int, seed: int) -> Job:
    """empirical_k_point against the exact rho_k, within 4 of its stderr."""
    pts = np.asarray(points, dtype=float)
    exact = densities.rho_k(model, pts - pts[0]).rho
    spec = simulation.SimulationSpec(window_length=4.0, num_samples=n,
                                     master_seed=seed)

    def check(out):
        est, se = out
        return _four_se(est - exact, se, "empirical - exact rho_k"), _rel(se, est)

    return Job(f"kpoint/{model.kind}", lambda: simulation.empirical_k_point(
        model, spec, pts, epsilon, threads=SIM_THREADS), check, "kpoint")


# ---------------------------------------------------------------------------
# spectral table
# ---------------------------------------------------------------------------

_TABLE_XI = np.linspace(0.0, 3.0, 13)


def _interp_moment_weights(xi: np.ndarray, order: int) -> np.ndarray:
    """w with sum(w * g) = int_0^xi_max t^order * (linear interpolant of g)."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    w = np.zeros(xi.size)
    for i, (a, b) in enumerate(zip(xi[:-1], xi[1:])):
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        tw = 0.5 * (b - a) * weights * t ** order
        w[i] += np.sum(tw * (b - t)) / (b - a)
        w[i + 1] += np.sum(tw * (t - a)) / (b - a)
    return w


def spectral_table_model(seed: int):
    """A table density exp(-xi^2/2) (1 + 0.3 h) with tail c exp(-2 xi^2).

    The seeded shape h leaves the mass, the second moment and the last
    table value unchanged, so every seed normalizes with the same scale and
    tail: the model's truncation and quadrature panels, hence the cost of
    one `derivs` point, do not depend on the seed.  The steep tail keeps
    the truncation near 6 instead of 11, which halves the cost of a
    `derivs` point, so that two passes fit in a run.
    """
    rng = _rng(seed, "spectral-table")
    base = np.exp(-0.5 * _TABLE_XI ** 2)
    keep = np.stack([_interp_moment_weights(_TABLE_XI, 0) * base,
                     _interp_moment_weights(_TABLE_XI, 2) * base,
                     np.eye(_TABLE_XI.size)[-1]], axis=1)
    q, _ = np.linalg.qr(keep)
    h = rng.standard_normal(_TABLE_XI.size)
    h -= q @ (q.T @ h)
    g = base * (1.0 + 0.3 * h / np.abs(h).max())
    edge = _TABLE_XI[-1] ** 2
    raw = models.SpectralDensity(xi=_TABLE_XI, g=g, tail_kind="gaussian",
                                 tail_params=(math.exp(1.5 * edge), 2.0))
    return models.normalize_from_spectral_density(raw, label="spectral-table")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def build_models(workload: str, seed: int) -> dict:
    """The correlation models a workload's jobs use."""
    if workload == "spectral-table":
        return {"spectral-table": spectral_table_model(seed)}
    return {name: models.get_model(name) for name in PRESETS}


def _intensity(rng, ms) -> list[Job]:
    jobs = []
    for pi, name in enumerate(PRESETS):
        model = ms[name]
        jobs.append(rho_job(model, [rng.uniform(-5.0, 5.0)],
                            MonteCarloSpec(seed=_mc_seed(rng))))
        d = rng.uniform(0.05, 0.6)
        jobs.append(rho_job(model, np.array([0.0, d]) + rng.uniform(-5.0, 5.0),
                            MonteCarloSpec(seed=_mc_seed(rng))))
        for k in range(3, 7):
            pts = configuration(rng, k, SHAPES[(k + pi) % 3])
            jobs.append(rho_job(model, pts, MonteCarloSpec(seed=_mc_seed(rng))))
    bf, cauchy = ms["bargmann-fock"], ms["cauchy"]
    jobs.append(vanishing_job(bf, [0.0, 0.0], MonteCarloSpec(seed=_mc_seed(rng)),
                              exact=1.0 / (4.0 * math.pi)))
    dist = rng.uniform(1.5, 3.0)
    jobs.append(vanishing_job(cauchy, [0.0, 0.0, dist, dist],
                              MonteCarloSpec(seed=_mc_seed(rng))))
    pair = IndexPartition.from_blocks([(0, 1), (2, 3)])
    for model in (bf, cauchy):
        a, b, gap = rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6), rng.uniform(6.0, 10.0)
        jobs.append(clustering_job(model, [0.0, a, a + gap, a + gap + b], pair,
                                   MonteCarloSpec(seed=_mc_seed(rng))))
    return jobs


def _variance(rng, ms) -> list[Job]:
    # The test functions and the fcurve grid size are fixed, so the work
    # and the stated errors (covariances are shift invariant) do not move
    # with the seed; the seed picks the side of the gaussian's center and
    # the fcurve step.  Supports of radius 0.1 keep the sinc R = 1000
    # quadratures near 2 s each (indicator:0,1 takes 14 s), so that two
    # passes fit in a run.
    ind = TestFunction.indicator(0.0, 0.1)
    gauss = TestFunction.gaussian(rng.choice([-0.01, 0.01]), 0.01)
    step = rng.uniform(0.009, 0.011)
    zmax = 800 * step
    jobs = []
    for name in PRESETS:
        model = ms[name]
        jobs.append(sigma2_job(model))
        jobs.append(fcurve_job(model, zmax, step))
        for phi in (ind, gauss):
            for R in (100.0, 1000.0):
                jobs.append(predicted_moment_job(model, phi, R))
    return jobs


def _montecarlo(rng, ms) -> list[Job]:
    jobs = []
    for name in ("bargmann-fock", "cauchy"):
        for R, n, tag in ((100.0, 2000, "R100"), (1000.0, 200, "R1000")):
            jobs.append(moments_job(ms[name], R, n, _mc_seed(rng), tag))
    bf, sinc = ms["bargmann-fock"], ms["sinc-sqrt3"]
    jobs.append(zero_samples_job(bf, 100.0, 500, _mc_seed(rng), "R100"))
    x0 = rng.uniform(0.3, 1.0)
    jobs.append(k_point_job(bf, [x0, x0 + rng.uniform(1.5, 2.5)], 0.1, 30_000,
                            _mc_seed(rng)))
    # dense fallback at R = 50; EmbeddingFailure at R = 100 (a known defect)
    jobs.append(moments_job(sinc, 50.0, 200, _mc_seed(rng)))
    jobs.append(moments_job(sinc, 100.0, 200, _mc_seed(rng)))
    return jobs


def _spectral_table(rng, ms) -> list[Job]:
    model = ms["spectral-table"]
    jobs = [rho_job(model, [0.0, rng.uniform(0.05, 0.6)],
                    MonteCarloSpec(seed=_mc_seed(rng)))]
    for k in range(3, 7):
        jobs.append(rho_job(model, configuration(rng, k, SHAPES[k % 3]),
                            MonteCarloSpec(seed=_mc_seed(rng))))
    # sigma_squared refuses: table models certify no tail bound (a known defect)
    jobs.append(sigma2_job(model))
    jobs.append(zero_samples_job(model, 2.0, 2000, _mc_seed(rng)))
    return jobs


_BUILDERS = {"intensity": _intensity, "variance": _variance,
             "montecarlo": _montecarlo, "spectral-table": _spectral_table}


def build_jobs(workload: str, seed: int, ms: dict) -> list[Job]:
    """The workload's job list for this seed, in the order it is sent."""
    return _BUILDERS[workload](_rng(seed, workload), ms)


def parallel_probe(seed: int, ms: dict):
    """The R = 1000 moments job as a function of its thread count."""
    mc_seed = _mc_seed(_rng(seed, "montecarlo"))
    return lambda threads: moments_run(ms["bargmann-fock"], 1000.0, 200,
                                       mc_seed, threads)
