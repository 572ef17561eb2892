"""Command-line entry point.

Scalar answers are printed as single JSON objects, replicate streams as
JSON lines, curves as CSV.  Exit codes: 0 success, 2 domain error,
3 numerical failure, 4 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import densities, partitions, simulation, variance
from .conditioning import MonteCarloSpec
from .errors import ConfigError, DomainError, NumericsError, SizeCap
from .models import QuadratureSpec, get_model
from .partitions import IndexPartition
from .variance import TestFunction

EXIT_DOMAIN = 2
EXIT_NUMERICS = 3
EXIT_CONFIG = 4
# fcurve grid cap: two_point_F at 2^20 points peaks near 170 MB
_FCURVE_BUDGET = 1 << 20


def _parse_points(text: str) -> np.ndarray:
    try:
        pts = np.array([float(t) for t in text.split(",") if t != ""])
    except ValueError as exc:
        raise ConfigError(f"cannot parse points {text!r}") from exc
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"--points must be finite numbers, got {text!r}")
    return pts


def _emit(args, payload: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _given(**fields) -> dict:
    """The fields whose option was given; dataclass defaults fill the rest."""
    return {k: v for k, v in fields.items() if v is not None}


def _quad_spec(args, model) -> QuadratureSpec:
    _require_positive(args, "tolerance")
    return replace(model.default_quadrature(),
                   **_given(abs_tolerance=args.tolerance))


def _mc_spec(args) -> MonteCarloSpec:
    return MonteCarloSpec(**_given(seed=args.seed))


def _sim_spec(args) -> simulation.SimulationSpec:
    _require(args, "R")
    _require_positive(args, "R", "step", "threads")
    if args.n < 2:
        raise ConfigError(f"--n must be at least 2 replicates, got {args.n}")
    return simulation.SimulationSpec(
        window_length=args.R * args.phi_obj.support_radius(),
        num_samples=args.n, **_given(grid_step=args.step, master_seed=args.seed))


def _torus_fields(model, spec: simulation.SimulationSpec) -> dict:
    """The sampler's weight rule, torus nodes, window evaluator ("fft" or
    "product"), kept modes, complex normals a pair draws and covariance
    error over the window's lags (for a periodic torus a `derivs` call on
    every lag, which only the CLI pays)."""
    sampler = simulation._SpectralSampler(model, spec)
    return {"route": sampler.route, "nodes": sampler.n,
            "window": sampler.window, "modes": sampler.modes,
            "normals": sampler.normals,
            "covariance_error": sampler.covariance_error}


def _dump_config(args) -> int:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "dump_config", "phi_obj", "config")
           and v is not None}
    sys.stdout.write(_json_line(cfg))
    return 0


def _preload_config(argv: list, subparsers: dict):
    """Inject a dumped config as subparser defaults; unknown keys exit 4.

    Explicit command-line flags still win because defaults only fill in
    missing options.  A `--config` without a value exits through argparse.
    """
    pre = argparse.ArgumentParser(prog="gausszeros", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return
    command = next((a for a in argv if a in subparsers), None)
    if command is None:
        raise ConfigError("--config requires a subcommand")
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    if doc.pop("command", command) != command:
        raise ConfigError("config file was dumped for a different command")
    sub = subparsers[command]
    known = {a.dest for a in sub._actions}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sub.set_defaults(**doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rho(args) -> int:
    _require(args, "points")
    model = get_model(args.model)
    mc = _mc_spec(args)
    records = []
    for chunk in args.points.split(";"):
        pts = _parse_points(chunk)
        if args.partition:
            part = IndexPartition.parse(args.partition)
            res = densities.rho_with_partition(model, pts, part, mc)
        else:
            res = densities.rho_k(model, pts, mc)
        records.append({
            "points": list(pts),
            "rho": res.rho,
            "d": res.d_value,
            "n": res.n_value,
            "partition": str(res.partition_used),
            "vandermonde": res.vandermonde_factor,
            "stderr": res.n_stderr,
            "moment_route": res.moment_route,
            "routes": list(res.routes),
        })
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["points", "rho", "d", "n", "partition", "vandermonde",
                    "stderr", "moment_route", "routes"])
        for r in records:
            w.writerow([" ".join(f"{v:g}" for v in r["points"]),
                        f"{r['rho']:.17g}", f"{r['d']:.17g}",
                        f"{r['n']:.17g}", r["partition"],
                        f"{r['vandermonde']:.17g}", f"{r['stderr']:.17g}",
                        r["moment_route"], " ".join(r["routes"])])
        _emit(args, buf.getvalue())
    else:
        _emit(args, "".join(_json_line(r) for r in records))
    return 0


def cmd_sigma2(args) -> int:
    model = get_model(args.model)
    spec = _quad_spec(args, model)
    record = {"sigma2": None, "converged": False,
              "lower_bound": variance.sigma_lower_bound(model)}
    try:
        record.update(sigma2=variance.sigma_squared(model, spec), converged=True)
    except NumericsError:
        _emit(args, _json_line(record))  # the closed-form bound still holds
        raise  # main() maps it to exit 3
    _emit(args, _json_line(record))
    return 0


def cmd_fcurve(args) -> int:
    _require_positive(args, "zmax", "step")
    points = args.zmax / args.step
    if points > _FCURVE_BUDGET:  # inf included
        raise SizeCap(f"--zmax {args.zmax:g} at --step {args.step:g} asks "
                      f"for {points:.4g} points, over the budget of "
                      f"{_FCURVE_BUDGET}")
    model = get_model(args.model)
    n = int(math.floor(points + 1e-9))
    if n == 0:
        raise ConfigError("--zmax must be at least --step")
    zs = [i * args.step for i in range(1, n + 1)]
    fs = variance.two_point_F(model, np.array(zs)).tolist()
    if args.format == "json":
        _emit(args, _json_line({"z": zs, "F": fs}))
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["z", "F"])
    for z, f in zip(zs, fs):
        writer.writerow([f"{z:.12g}", f"{f:.17g}"])
    _emit(args, buf.getvalue())
    return 0


def cmd_simulate(args) -> int:
    spec = _sim_spec(args)
    simulation._require_window(spec, args.phi_obj, args.R)
    model = get_model(args.model)
    samples = simulation.zero_samples(model, spec, threads=args.threads)
    arr = simulation.linear_statistic(samples, args.phi_obj, args.R)
    lines = []
    for rep, (s, stat) in enumerate(zip(samples, arr.tolist())):
        rec = {"seed": rep, "count": int(s.zeros.size), "stat": stat}
        if args.emit_zeros:
            rec["zeros"] = [round(float(z), 12) for z in s.zeros]
        lines.append(_json_line(rec))
    _emit(args, "".join(lines))

    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))
    summary = io.StringIO()
    w = csv.writer(summary)
    w.writerow(["quantity", "estimate", "stderr", "ci_lo", "ci_hi", "n"])
    w.writerow(["linear_statistic", f"{arr.mean():.12g}", f"{stderr:.12g}",
                f"{arr.mean() - 1.96 * stderr:.12g}",
                f"{arr.mean() + 1.96 * stderr:.12g}", arr.size])
    for name, value in _torus_fields(model, spec).items():
        w.writerow([name, value if isinstance(value, str) else f"{value:.12g}",
                    "", "", "", ""])
    # summary goes to stdout when the stream went to a file, else to stderr
    (sys.stdout if args.out else sys.stderr).write(summary.getvalue())
    return 0


def cmd_moments(args) -> int:
    _require(args, "p")
    spec = _sim_spec(args)
    model = get_model(args.model)
    quad = _quad_spec(args, model)
    # every refusal before the paths are drawn: the window, then the prediction
    simulation._require_orders([args.p])
    simulation._require_window(spec, args.phi_obj, args.R)
    predicted = partitions.predicted_central_moment(
        model, [args.phi_obj] * args.p, args.R, quad)
    est = simulation.empirical_moments(
        model, spec, args.phi_obj, args.R, [args.p], threads=args.threads)[0]
    _emit(args, _json_line({
        "p": args.p, "estimate": est.estimate,
        "ci": [est.ci_low, est.ci_high], "n": est.num_samples,
        "predicted_pair_sum": predicted, **_torus_fields(model, spec),
    }))
    return 0


def cmd_clustering(args) -> int:
    _require(args, "points", "partition")
    model = get_model(args.model)
    pts = _parse_points(args.points)
    part = IndexPartition.parse(args.partition)
    res = densities.clustering_defect(model, pts, part, _mc_spec(args))
    _emit(args, _json_line({"ratio": res.ratio, "defect": res.defect,
                            "error": res.error, "bound": res.bound,
                            "partition": str(part)}))
    return 0


def cmd_vanishing(args) -> int:
    _require(args, "points")
    model = get_model(args.model)
    pts = _parse_points(args.points)
    res = densities.vanishing_constant(model, pts, _mc_spec(args))
    _emit(args, _json_line({"ell": res.value, "stderr": res.stderr,
                            "moment_route": res.moment_route,
                            "partition": str(res.partition)}))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# --seed of the commands whose only random numbers are those of pi_k
_MOMENT_SEED = dict(help="seed of the sampled moments: only pi_k calls with 6 or "
                         "more coordinates sample (a lattice rule at seeded "
                         "rotations); smaller ones are deterministic")


def _add_common(sub, *options, **helps):
    """Options every command reads, then the named ones this command reads;
    `helps` overrides an option's help text."""
    sub.add_argument("--model", default="bargmann-fock",
                     help="preset name or spectral-table JSON path")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--config", default=None,
                     help="JSON config produced by --dump-config")
    sub.add_argument("--dump-config", action="store_true")
    specs = {
        "seed": dict(type=int, default=None,
                     help="master seed of the sampled paths"),
        "threads": dict(type=int, default=os.cpu_count() or 1,
                        help="sampler threads, at most the batch and CPU "
                             "counts (default: CPU count)"),
        "tolerance": dict(type=float, default=None,
                          help="absolute quadrature tolerance"),
        "format": dict(choices=("json", "csv"), default=None,
                       help="override the command's native output format"),
        "phi": dict(default="indicator:0,1",
                    help="indicator:a,b | gaussian:center,width | table:path"),
    }
    for name in options:
        sub.add_argument(f"--{name}", **{**specs[name], **helps.get(name, {})})


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"--{name} is required (flag or config file)")


def _require_positive(args, *names):
    """Given values of the named options must be finite and positive."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--{name} must be positive and finite, "
                              f"got {value!r}")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="gausszeros",
        description="Zero statistics of stationary Gaussian processes")
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    p = registry["rho"] = subs.add_parser(
        "rho", help="k-point intensity at a configuration")
    p.add_argument("--points",
                   help="comma-separated configuration; ';' separates several")
    p.add_argument("--partition", default=None, help='e.g. "{0,1},{2}"')
    _add_common(p, "seed", "format", seed=_MOMENT_SEED)
    p.set_defaults(func=cmd_rho)

    p = registry["sigma2"] = subs.add_parser(
        "sigma2", help="variance growth constant and lower bound")
    _add_common(p, "tolerance")
    p.set_defaults(func=cmd_sigma2)

    p = registry["fcurve"] = subs.add_parser(
        "fcurve", help="two-point excess curve as CSV")
    p.add_argument("--zmax", type=float, default=8.0)
    p.add_argument("--step", type=float, default=0.01)
    _add_common(p, "format")
    p.set_defaults(func=cmd_fcurve)

    p = registry["simulate"] = subs.add_parser(
        "simulate", help="replicate zero sets and statistics")
    p.add_argument("--R", type=float)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--step", type=float, default=None, help="grid step")
    p.add_argument("--emit-zeros", action="store_true")
    _add_common(p, "seed", "threads", "phi")
    p.set_defaults(func=cmd_simulate)

    p = registry["moments"] = subs.add_parser(
        "moments", help="empirical vs predicted central moment")
    p.add_argument("--p", type=int)
    p.add_argument("--R", type=float)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--step", type=float, default=None)
    _add_common(p, "seed", "threads", "tolerance", "phi")
    p.set_defaults(func=cmd_moments)

    p = registry["clustering"] = subs.add_parser(
        "clustering", help="block factorization ratio, defect, error and bound")
    p.add_argument("--points")
    p.add_argument("--partition")
    _add_common(p, "seed", seed=_MOMENT_SEED)
    p.set_defaults(func=cmd_clustering)

    p = registry["vanishing"] = subs.add_parser(
        "vanishing", help="diagonal vanishing-order constant")
    p.add_argument("--points")
    _add_common(p, "seed", seed=_MOMENT_SEED)
    p.set_defaults(func=cmd_vanishing)

    return parser, registry


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        try:
            _preload_config(argv, registry)
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_CONFIG if exc.code not in (0, None) else 0
        if hasattr(args, "phi"):
            args.phi_obj = TestFunction.from_spec(args.phi)
        if args.dump_config:
            return _dump_config(args)
        return args.func(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except NumericsError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICS
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
