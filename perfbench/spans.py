"""Spans recorded from outside the library, and the per-layer metrics built
from them.

`install` replaces the wrapped functions of curvlab in every namespace that
binds them (the defining module, the modules that import them by name, the
package itself, and the `cli.SUITES` table), so calls made through any of
those names are seen.  Nothing under `src/` changes on disk; the wrappers
live only in the traced worker process.

A span is [name, start, end, parent index, key, function], where key
identifies the inputs of a model or algebra build (for the waste ratios) and function is
the wrapped callable as "<module>.<qualname>".  Spans stay in memory and
are written as one JSON file when the worker exits.  A span's self time is
its duration minus the durations of its direct children; on one thread the
children of a span never overlap, so that difference is the part of the
interval its children do not cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time

# (module, function, span name, stats).  "timed" adds p50_ms / p90_ms of the
# inclusive call duration, for functions that run once per trial; their
# sample count is the span's `calls`.
WRAPPED = [
    ("euclid", "symmetric_eigen", "euclid.symmetric_eigen", ("calls", "self_s")),
    ("tensor", "t_hat", "tensor.t_hat", ("calls", "self_s", "timed")),
    ("tensor", "to_operator", "tensor.to_operator", ("calls", "self_s")),
    ("tensor", "check_curvature_symmetries", "tensor.check_curvature_symmetries", ("calls", "self_s")),
    ("tensor", "total_traces", "tensor.total_traces", ("self_s",)),
    ("holonomy", "so_algebra", "holonomy.so_algebra", ("calls", "self_s")),
    ("holonomy", "u_algebra", "holonomy.u_algebra", ("calls", "self_s")),
    ("holonomy", "sp_sp1_algebra", "holonomy.sp_sp1_algebra", ("calls", "self_s")),
    ("holonomy", "project", "holonomy.project", ("calls", "self_s")),
    ("holonomy", "complement_mass", "holonomy.complement_mass", ("self_s",)),
    ("decomp", "curvature_space_dim", "decomp.curvature_space_dim", ("calls", "self_s")),
    ("decomp", "random_algebra_curvature", "decomp.random_algebra_curvature", ("calls", "self_s", "timed")),
    ("decomp", "hp", "decomp.models", ("calls", "self_s")),
    ("decomp", "sphere", "decomp.models", ("calls", "self_s")),
    ("decomp", "const_hol", "decomp.models", ("calls", "self_s")),
    ("decomp", "wolf", "decomp.models", ("calls", "self_s")),
    ("decomp", "grassmannian", "decomp.models", ("calls", "self_s")),
    ("decomp", "weyl_decompose", "decomp.weyl_decompose", ("self_s",)),
    ("decomp", "bochner_decompose", "decomp.bochner_decompose", ("self_s",)),
    ("decomp", "qk_decompose", "decomp.qk_decompose", ("self_s",)),
    ("decomp", "bochner_explicit", "decomp.bochner_explicit", ("self_s",)),
    ("criteria", "hat_ratio_qk", "criteria.hat_ratio_qk", ("calls", "self_s", "timed")),
    ("criteria", "hat_norm_direct", "criteria.hat_norm_direct", ("self_s",)),
    ("criteria", "hat_norm_formula", "criteria.hat_norm_formula", ("self_s",)),
    ("criteria", "invariance_defect", "criteria.invariance_defect", ("self_s",)),
    ("criteria", "two_nonnegative_shift", "criteria.two_nonnegative_shift", ("calls", "self_s")),
    ("criteria", "curvature_term_self", "criteria.curvature_term_self", ("calls", "self_s")),
    ("criteria", "weighted_criterion", "criteria.weighted_criterion", ("calls",)),
    ("cli", "_sample_csv", "cli.render", ("self_s",)),
]

# Report.to_json renders the verify report; _sample_csv above renders the
# sample table.  Report.to_csv serves `verify --format csv`, which no
# workload runs, so it is not wrapped.
RENDER_METHODS = ("to_json",)

SUITES = ("hp", "wolf", "grassmann", "weyl-norm", "bochner-norm", "qk-ratio", "tripod", "decomp")

# Builders whose repeated calls on one key are wasted work.
ALGEBRA_SPANS = ("holonomy.so_algebra", "holonomy.u_algebra", "holonomy.sp_sp1_algebra")
MODEL_SPANS = ("decomp.models",)
WASTE_RATIOS = {
    "holonomy.algebra_builds_per_key": ALGEBRA_SPANS,
    "decomp.model_builds_per_key": MODEL_SPANS,
}


def _algebra_key(fn_name, args, kwargs):
    space = args[0] if args else kwargs["space"]
    return f"{fn_name}:{space.kind}:{space.n}"


def _model_key(fn_name, args, kwargs):
    return f"{fn_name}:{args!r}:{sorted(kwargs.items())!r}"


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn, key=None):
        spans = self.spans
        local = self._local
        fn_name = fn.__name__
        label = f"{fn.__module__.removeprefix('curvlab.')}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    key(fn_name, args, kwargs) if key else None, label]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in WRAPPED wherever curvlab binds it.

    Returns the rebound names as "<namespace>.<attribute>".
    """
    import curvlab
    from curvlab import cli, criteria, decomp, euclid, holonomy, tensor

    modules = {"euclid": euclid, "tensor": tensor, "holonomy": holonomy,
               "decomp": decomp, "criteria": criteria, "cli": cli}
    namespaces = [("curvlab", curvlab)] + list(modules.items())
    installed = []
    for mod_name, fn_name, span, _ in WRAPPED:
        original = getattr(modules[mod_name], fn_name)
        key = _algebra_key if span in ALGEBRA_SPANS else _model_key if span in MODEL_SPANS else None
        wrapper = tracer.wrap(span, original, key)
        for ns_name, ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    installed.append(f"{ns_name}.{attr}")
    for method in RENDER_METHODS:
        setattr(cli.Report, method, tracer.wrap("cli.render", getattr(cli.Report, method)))
        installed.append(f"cli.Report.{method}")
    for suite in SUITES:
        cli.SUITES[suite] = tracer.wrap(f"cli.suite.{suite}", cli.SUITES[suite])
        installed.append(f"cli.SUITES[{suite}]")
    return installed


# ---------------------------------------------------------------------------
# analysis


def wrapped_functions() -> list[str]:
    """Labels of every wrapped function, as recorded in spans."""
    out = [f"{mod}.{fn}" for mod, fn, _, _ in WRAPPED]
    out += [f"cli.Report.{m}" for m in RENDER_METHODS]
    return out + [f"cli.suite_{s.replace('-', '_')}" for s in SUITES]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"cli.suite.{s}.s", "s") for s in SUITES]
    seen = set()
    for _, _, span, stats in WRAPPED:
        if span in seen:
            continue
        seen.add(span)
        for stat in stats:
            if stat == "timed":
                out += [(f"{span}.p50_ms", "ms"), (f"{span}.p90_ms", "ms")]
            else:
                out.append((f"{span}.{stat}", "count" if stat == "calls" else "s"))
    out += [(name, "ratio") for name in WASTE_RATIOS]
    out.append(("trace.overhead_s", "s"))
    return out


def _p90(ordered: list[float]) -> float:
    """Nearest-rank 90th percentile of an ascending, non-empty list."""
    return ordered[-(-9 * len(ordered) // 10) - 1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from a list of spans; trace.overhead_s is left to
    the caller, which also has the untraced run."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    keys: dict[str, set] = {}
    for idx, (name, start, end, _, key, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[idx]
        durations.setdefault(name, []).append(end - start)
        if key is not None:
            keys.setdefault(name, set()).add(key)

    out: dict[str, float] = {}
    for name, _ in metric_names():
        if name in WASTE_RATIOS:
            group = WASTE_RATIOS[name]
            distinct = len(set().union(*(keys.get(s, set()) for s in group)))
            out[name] = sum(calls.get(s, 0) for s in group) / distinct if distinct else 0.0
        elif name.startswith("cli.suite."):
            out[name] = sum(durations.get(name[: -len(".s")], []))
        elif name != "trace.overhead_s":
            span, stat = name.rsplit(".", 1)
            ordered = sorted(durations.get(span, []))
            if stat == "calls":
                out[name] = calls.get(span, 0)
            elif stat == "self_s":
                out[name] = self_s.get(span, 0.0)
            elif not ordered:
                out[name] = 0.0
            elif stat == "p50_ms":
                out[name] = 1e3 * statistics.median(ordered)
            else:
                out[name] = 1e3 * _p90(ordered)
    return out
