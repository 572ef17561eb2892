"""gausszeros benchmark: one closed-loop client running a workload's job list.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Set-up (`setup_s`) is timed in fresh interpreters that
import `gausszeros.cli` and build the workload's models.  Then the job
list, generated from the seed, is sent one job at a time, the next when the
previous one returns, in passes until S seconds are used (at least one
pass).  Every output is checked; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, from untraced passes.
With --trace 1 the first half of the time runs untraced passes and the
rest traced ones, in which tracer.py wraps every public function of the
package from outside; the metrics are then the per-layer ones, and the
spans are written to .perfbench_out/ when the run ends.

Times are reported at a reference host speed: see SpeedReference.
"""

from __future__ import annotations

import os

# pin the BLAS/OpenMP pools before numpy is imported, here and in children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

# Layers whose public functions each workload must reach; the traced run
# fails when one of them records no call.  Why each workload exists, and
# what it should and should not move, is in BENCHMARK.json and README.md.
ACTIVE_LAYERS = {
    "intensity": ("models", "divdiff", "conditioning", "densities", "partitions"),
    "variance": ("models", "variance", "partitions"),
    "montecarlo": ("models", "variance", "partitions", "simulation"),
    "spectral-table": ("models", "divdiff", "conditioning", "densities",
                       "partitions", "variance", "simulation"),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself, not the program under test, went wrong."""


class SpeedReference:
    """Fixed work, independent of the package, timed between jobs.

    On a shared host the speed of the same code drifts by tens of percent
    over minutes.  Slices of this kernel run after every job (10 % of the
    job's time, at least 20 ms) and after every set-up probe, so they
    sample the host over the same minutes as the work.  Every time metric
    is multiplied by `scale`: it is reported in seconds on a host where one
    reference unit takes REF_UNIT_S.  That constant is arbitrary (a unit
    takes 0.35-0.5 ms on a 2-core x86-64 VM); only ratios between runs
    matter.
    """

    REF_UNIT_S = 4e-4

    def __init__(self):
        self.seconds = 0.0
        self.units = 0
        self._x = np.random.default_rng(0).standard_normal((16, 1024))

    def after(self, work_seconds: float):
        """Run whole units for 10 % of `work_seconds`, at least 20 ms."""
        target = max(0.02, 0.1 * work_seconds)
        t0 = perf_counter()
        while True:
            acc = 0
            for i in range(4000):
                acc += i * i
            np.fft.fft(self._x, axis=1)
            self.units += 1
            elapsed = perf_counter() - t0
            if elapsed >= target:
                self.seconds += elapsed
                return

    @property
    def unit_s(self) -> float:
        return self.seconds / self.units

    @property
    def scale(self) -> float:
        return self.REF_UNIT_S / self.unit_s


@dataclass
class Outcome:
    name: str
    seconds: float
    error: str | None = None
    problems: list = field(default_factory=list)
    rel_err: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclass
class Pass:
    wall: float       # job time only, without the reference slices
    elapsed: float    # including them
    ref_unit_s: float  # reference speed measured during this pass
    outcomes: list
    warnings: dict
    spans: list | None = None
    taylor_hits: int = 0


class WarningCounter:
    """showwarning replacement: counts the warnings the layers emit."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def __call__(self, message, category, filename, lineno, file=None, line=None):
        if category.__name__ == "IntegrationWarning":
            key = "IntegrationWarning"
        elif issubclass(category, RuntimeWarning) and "fallback" in str(message):
            key = "fallback"
        else:
            key = "other"
        self.counts[key] = self.counts.get(key, 0) + 1


def attempt(job, expected_errors) -> Outcome:
    try:
        out = job.run()
    except expected_errors as exc:
        return Outcome(job.name, 0.0, error=type(exc).__name__)
    problems, rel_err = job.check(out)
    return Outcome(job.name, 0.0, problems=problems, rel_err=rel_err)


def run_pass(jobs, ref: SpeedReference, tracer_cls=None) -> Pass:
    from gausszeros.errors import DomainError, NumericsError

    expected = (DomainError, NumericsError)
    counter = WarningCounter()
    tracer = tracer_cls().install() if tracer_cls else None
    outcomes = []
    ref_s, units0 = ref.seconds, ref.units
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = counter
            start = perf_counter()
            for job in jobs:
                t0 = perf_counter()
                if tracer is None:
                    res = attempt(job, expected)
                else:
                    res = tracer.call("job", lambda: attempt(job, expected),
                                      info=job.tag)
                res.seconds = perf_counter() - t0
                outcomes.append(res)
                ref.after(res.seconds)
            elapsed = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    ref_s = ref.seconds - ref_s
    spans = tracer.spans if tracer else None
    hits = tracer.taylor_hits if tracer else 0
    return Pass(elapsed - ref_s, elapsed, ref_s / (ref.units - units0),
                outcomes, counter.counts, spans, hits)


def run_passes(jobs, ref: SpeedReference, deadline: float,
               tracer_cls=None) -> list[Pass]:
    """Passes until the next one would end after `deadline`; at least one."""
    passes = [run_pass(jobs, ref, tracer_cls)]
    while perf_counter() + statistics.median(p.elapsed for p in passes) <= deadline:
        passes.append(run_pass(jobs, ref, tracer_cls))
    return passes


def measure_setup(workload: str, seed: int, ref: SpeedReference) -> float:
    """Median time for a fresh interpreter to import the CLI and build models."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--probe-setup", "--workload", workload,
                        "--seed", str(seed)],
                       cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        ref.after(times[-1])
    return statistics.median(times)


def hd_median(values) -> float:
    """Harrell-Davis median: order statistics weighted by Beta((n+1)/2, (n+1)/2).

    On a few jobs of mixed cost the sample median jumps whenever the middle
    rank passes from one job to a much cheaper or dearer one; this
    estimator moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    a = 0.5 * (x.size + 1)
    return float(np.dot(np.diff(betainc(a, a, np.arange(x.size + 1) / x.size)), x))


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    outcomes = [o for p in passes for o in p.outcomes]
    ok = [o for o in outcomes if not o.failed]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_s": hd_median([o.seconds for o in outcomes]),
        "op_max_s": statistics.median(max(o.seconds for o in p.outcomes)
                                      for p in passes),
        "ok_frac": len(ok) / len(outcomes),
        "err_rel_max": max((o.rel_err for o in ok), default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload: str, seed: int, ms, untraced: list[Pass],
              traced: list[Pass]) -> dict[str, float]:
    import tracer
    import workloads

    rows = []
    for p in traced:
        tracer.check_accounting(p.spans, p.wall)
        calls = tracer.layer_calls(p.spans)
        idle = [layer for layer in ACTIVE_LAYERS[workload] if calls[layer] == 0]
        if idle:
            raise BenchmarkError(f"active layers recorded no calls: {idle}")
        rows.append(tracer.layer_metrics(p.spans, p.taylor_hits, p.warnings))
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    # each pass in its own reference units, so drift between phases cancels
    metrics["trace.overhead"] = (
        statistics.median(p.wall / p.ref_unit_s for p in traced)
        / statistics.median(p.wall / p.ref_unit_s for p in untraced) - 1.0)
    metrics["simulation.parallel_eff"] = 0.0
    if workload == "montecarlo":
        probe = workloads.parallel_probe(seed, ms)
        seconds = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for threads in (1, workloads.SIM_THREADS):
                t0 = perf_counter()
                probe(threads)
                seconds[threads] = perf_counter() - t0
        metrics["simulation.parallel_eff"] = (
            seconds[1] / (workloads.SIM_THREADS * seconds[workloads.SIM_THREADS]))
    return metrics


def write_spans(path: Path, traced: list[Pass]):
    """One JSON array per span: pass, name, start, end, parent index, error."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for i, p in enumerate(traced):
            for s in p.spans:
                fh.write(json.dumps([i, *s[:5]]) + "\n")


def environment(args) -> dict:
    import scipy

    import workloads
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "sim_threads": workloads.SIM_THREADS,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS},
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(ACTIVE_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gausszeros" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'gausszeros'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        import gausszeros.cli  # noqa: F401
        import workloads
        workloads.build_models(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = SpeedReference()
    setup_s = measure_setup(args.workload, args.seed, ref)
    import tracer
    import workloads

    ms = workloads.build_models(args.workload, args.seed)
    jobs = workloads.build_jobs(args.workload, args.seed, ms)
    t_start = perf_counter()
    if args.trace:
        untraced = run_passes(jobs, ref, t_start + 0.5 * args.seconds)
        traced = run_passes(jobs, ref, t_start + args.seconds, tracer.Tracer)
        passes = untraced + traced
        metrics = per_layer(args.workload, args.seed, ms, untraced, traced)
        write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", traced)
    else:
        passes = run_passes(jobs, ref, t_start + args.seconds)
        metrics = end_to_end(passes, setup_s)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise BenchmarkError(f"metrics {sorted(set(units) ^ set(metrics))} are "
                             "computed but not declared, or declared but not computed")
    for name, unit in units.items():
        if unit in ("s", "ms"):
            metrics[name] *= ref.scale

    outcomes = [o for p in passes for o in p.outcomes]
    failures = sorted({(o.name, o.error or "; ".join(o.problems))
                       for o in outcomes if o.failed})
    print(json.dumps({"perfbench": environment(args),
                      "jobs_per_pass": len(jobs), "passes": len(passes),
                      "ref_unit_s": ref.unit_s, "time_scale": ref.scale,
                      "raw_setup_s": setup_s,
                      "raw_pass_wall_s": [p.wall for p in passes],
                      "raw_job_s": {job.name: statistics.median(
                          p.outcomes[i].seconds for p in passes)
                          for i, job in enumerate(jobs)},
                      "warnings": [p.warnings for p in passes],
                      "failures": failures}))
    print(json.dumps({
        "correct": not any(o.problems for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
