"""One traced pass of every benchmark workload, through the benchmark's own
runner and tracer (imported, not changed).

A traced benchmark run exits 1 when a job raises an exception other than
the package's domain and numerics errors, or when a layer the workload
must reach records no call; this catches both in seconds.  The third
cause, span accounting off by more than 1 % of the pass wall time, depends
on the host's timing and is not checked here.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 101
# jobs that fail on every seed today: the 6-point table intensity refuses
# a non-PSD covariance, and the table sigma^2 certifies no tail bound
KNOWN_FAILURES = {("rho/spectral-table/k6", "NotPSD"),
                  ("sigma2/spectral-table", "QuadratureNotConverged")}


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    # run.py pins the BLAS thread variables when it is imported
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            mp.setenv(var, "1")
        yield tuple(importlib.import_module(name)
                    for name in ("run", "tracer", "workloads"))


@pytest.mark.parametrize("workload", ["intensity", "variance", "montecarlo",
                                      "spectral-table"])
def test_traced_pass(bench, workload):
    run, tracer, workloads = bench
    models = workloads.build_models(workload, SEED)
    jobs = workloads.build_jobs(workload, SEED, models)
    # an unexpected exception propagates out of run_pass and fails here
    result = run.run_pass(jobs, run.SpeedReference(), tracer.Tracer)
    calls = tracer.layer_calls(result.spans)
    assert [layer for layer in run.ACTIVE_LAYERS[workload]
            if calls[layer] == 0] == []
    failed = {(o.name, o.error or "; ".join(o.problems))
              for o in result.outcomes if o.failed}
    assert failed <= KNOWN_FAILURES
