"""Span tracer that instruments the gausszeros package from outside.

`Tracer.install()` replaces every public module-level function of the
layer modules, and every correlation model class's `derivs`, with a
wrapper that records one span per call: name, start, end, parent span,
the exception that ended it and a few facts about its arguments or
result.  Every alias the package calls through (for example
`densities.pi_k`, which is `conditioning.pi_k` imported by name) is
replaced too, because the sweep swaps each attribute of every package
module that is one of the original functions.  `uninstall()` restores the
originals.  Spans stay in memory; the runner writes them when the run ends.

`divdiff._dd_matrix_taylor` is wrapped as a counter only (no span), so
that the Taylor share of double divided differences can be measured
without splitting the time of `double_divided_diff_matrix`.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
from time import perf_counter

import numpy as np

LAYERS = ("models", "divdiff", "conditioning", "densities", "partitions",
          "variance", "simulation")

# span record fields
NAME, START, END, PARENT, ERROR, INFO = range(6)


def _derivs_info(args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _pi_k_info(args, kwargs, out):
    variance = args[0] if args else kwargs["variance"]
    return (len(variance), float(out[0]), float(out[1]))


def _cov_info(args, kwargs, out):
    # the package passes (model, phi1, phi2, R, quad) positionally
    model, phi1, phi2, R = args[:4]
    quad = args[4] if len(args) > 4 else kwargs.get("quad")
    return (id(model), phi1, phi2, float(R), quad)


def _zero_samples_info(args, kwargs, out):
    return (len(out), sum(int(s.zeros.size) for s in out))


_INFO_PROBES = {
    "models.derivs": _derivs_info,
    "conditioning.pi_k": _pi_k_info,
    "variance.predicted_covariance": _cov_info,
    "simulation.zero_samples": _zero_samples_info,
}


class Tracer:
    """Records spans of wrapped calls; one instance per traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.taylor_hits = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, info=None):
        """Run fn() inside a root-level or nested span called `name`."""
        return self._run(name, fn, (), {}, None, info)

    def _run(self, name, fn, args, kwargs, probe, info=None):
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, info]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[START] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec[END] = perf_counter()
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            stack.pop()
        rec[END] = perf_counter()
        if probe is not None:
            rec[INFO] = probe(args, kwargs, out)
        return out

    def _wrap(self, fn, name: str):
        probe = _INFO_PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._run(name, fn, args, kwargs, probe)
        return wrapper

    def _count_taylor(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is not None:
                self.taylor_hits += 1
            return out
        return wrapper

    # -- installation ---------------------------------------------------
    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from gausszeros import divdiff, models

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"gausszeros.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gausszeros"
                                   or name.startswith("gausszeros.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        self._set(divdiff, "_dd_matrix_taylor",
                  self._count_taylor(divdiff._dd_matrix_taylor))
        classes = [models.CorrelationModel]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if "derivs" in vars(cls):
                self._set(cls, "derivs",
                          self._wrap(vars(cls)["derivs"], "models.derivs"))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

class AccountingError(RuntimeError):
    """The tracer's own span bookkeeping is inconsistent."""


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its direct child spans."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_accounting(spans: list[list], wall_s: float, tol: float = 0.01):
    """Self times are non-negative and sum to the pass wall time within tol."""
    own = self_times(spans)
    worst = min(own, default=0.0)
    if worst < -1e-9:
        raise AccountingError(f"negative self time {worst:.3e} s")
    total = sum(own)
    if abs(total - wall_s) > tol * wall_s:
        raise AccountingError(
            f"self times sum to {total:.6f} s, pass took {wall_s:.6f} s")


def layer_metrics(spans: list[list], taylor_hits: int, warnings_seen: dict,
                  ) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but the two ratios
    that need extra runs: simulation.parallel_eff and trace.overhead)."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, own):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + t

    def root_tag(i: int) -> str:
        while spans[i][PARENT] >= 0:
            i = spans[i][PARENT]
        return spans[i][INFO] or ""

    m: dict[str, float] = {}
    points = sum(s[INFO] for s in spans
                 if s[NAME] == "models.derivs" and s[INFO] is not None)
    m["models.derivs.calls"] = calls.get("models.derivs", 0)
    m["models.derivs.points"] = points
    m["models.derivs.points_per_call"] = points / max(calls.get("models.derivs", 0), 1)
    for name in ("models.derivs", "models.tail_norm",
                 "divdiff.double_divided_diff_matrix", "divdiff.newton_matrix",
                 "conditioning.assemble_context", "conditioning.pi_k",
                 "conditioning.conditional_abs_moment", "densities.rho_k",
                 "densities.vanishing_constant", "densities.clustering_ratio",
                 "variance.two_point_F", "variance.sigma_squared",
                 "variance.sigma_lower_bound", "variance.predicted_covariance",
                 "partitions.predicted_central_moment",
                 "simulation.zero_samples", "simulation.empirical_moments",
                 "simulation.empirical_k_point"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("divdiff.double_divided_diff_matrix", "divdiff.double_divided_diff",
                 "divdiff.newton_matrix", "conditioning.assemble_context",
                 "conditioning.pi_k", "densities.rho_k", "variance.two_point_F",
                 "variance.predicted_covariance",
                 "partitions.predicted_central_moment", "simulation.zero_samples"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["divdiff.taylor_share"] = taylor_hits / max(
        calls.get("divdiff.double_divided_diff_matrix", 0), 1)

    # pi_k: sizes >= 3 sample; the relative error is taken at the outermost
    # call, the one whose answer reaches the caller
    pik = [(i, s) for i, s in enumerate(spans)
           if s[NAME] == "conditioning.pi_k" and s[INFO] is not None]
    m["conditioning.pi_k.mc_calls"] = sum(1 for _, s in pik if s[INFO][0] >= 3)
    rel = [s[INFO][2] / abs(s[INFO][1]) for _, s in pik
           if s[INFO][0] >= 3 and s[INFO][1] != 0.0
           and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != "conditioning.pi_k")]
    m["conditioning.pi_k.rel_stderr_p50"] = statistics.median(rel) if rel else 0.0

    m["variance.sigma_squared.refused_s"] = sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "variance.sigma_squared" and s[ERROR] is not None)
    m["variance.quad_warnings"] = warnings_seen.get("IntegrationWarning", 0)

    # distinct (model, phi1, phi2, R, quad) covariances per predicted moment
    keys_by_moment: dict[int, list] = {}
    for s in spans:
        if (s[NAME] == "variance.predicted_covariance" and s[INFO] is not None
                and s[PARENT] >= 0 and spans[s[PARENT]][NAME]
                == "partitions.predicted_central_moment"):
            keys_by_moment.setdefault(s[PARENT], []).append(s[INFO])
    distinct = sum(len(set(keys)) for keys in keys_by_moment.values())
    total = sum(len(keys) for keys in keys_by_moment.values())
    m["partitions.distinct_cov_ratio"] = distinct / total if total else 0.0

    reps = zeros = 0
    per_tag: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        if s[NAME] != "simulation.zero_samples":
            continue
        if s[INFO] is not None:
            reps += s[INFO][0]
            zeros += s[INFO][1]
            acc = per_tag.setdefault(root_tag(i), [0.0, 0])
            acc[0] += s[END] - s[START]
            acc[1] += s[INFO][0]
    m["simulation.replicates"] = reps
    m["simulation.zeros"] = zeros
    for tag in ("R100", "R1000", "kpoint"):
        t, n = per_tag.get(tag, (0.0, 0))
        m[f"simulation.ms_per_rep.{tag}"] = 1e3 * t / n if n else 0.0
    m["simulation.fallbacks"] = warnings_seen.get("fallback", 0)
    m["simulation.failures"] = sum(
        1 for s in spans if s[NAME] == "simulation.zero_samples"
        and s[ERROR] == "EmbeddingFailure")
    return m


def layer_calls(spans: list[list]) -> dict[str, int]:
    """Number of spans recorded per layer module."""
    out = {layer: 0 for layer in LAYERS}
    for s in spans:
        layer = s[NAME].split(".", 1)[0]
        if layer in out:
            out[layer] += 1
    return out
