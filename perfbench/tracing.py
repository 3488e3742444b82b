"""Span tracing of csiguard's layers from outside the package.

``Patches.install`` replaces each traced function with a wrapper in every
csiguard module namespace that holds it, because modules import names
directly (``cli`` imports ``run_batch`` from ``harness``, ``harness``
imports ``threshold`` from ``detector``): patching only the defining
module would record nothing for those callers.  ``uninstall`` restores
the originals.

A span records name, start, end, parent span and run id.  Spans stay in
memory; ``summarize`` turns the spans of one run into per-name calls,
total and self time, and the gaps between consecutive lockstep steps.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; the span name is the
# module name without its leading underscore, then the attribute name.
FUNCTIONS = (
    ("config", "config_from_mapping"),
    ("harness", "run_batch"),
    ("harness", "trial_records"),
    ("harness", "sweep"),
    ("harness", "roc_points"),
    ("harness", "write_csv"),
    ("_kernels", "grid_tables"),
    ("_kernels", "slope_tables"),
    ("_kernels", "prepare_state"),
    ("_kernels", "phase_search"),
    ("_kernels", "_candidate_objective"),
    ("_kernels", "whitened_quadform"),
    ("_kernels", "kalman_update"),
    ("detector", "threshold"),
    ("detector", "calibrate_empirical_threshold"),
    ("numerics", "chi2_quantile"),
    ("channel", "make_profile"),
    ("observation", "partial_dft"),
)
METHODS = (("_kernels", "GridTables", "ramp"),)

# The span whose consecutive starts inside one run_batch mark one step.
STEP_SPAN = "kernels.prepare_state"
BATCH_SPAN = "harness.run_batch"


def span_name(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{attr.lstrip('_')}"


class Tracer:
    """Collects spans while active; wrappers call :meth:`call`."""

    def __init__(self) -> None:
        self.reset(None)

    def reset(self, run_id) -> None:
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps parent indices stable
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount


def _wrapper(tracer: Tracer, name: str, fn):
    if name == "harness.write_csv":
        def traced(result, path, *args, **kwargs):
            out = tracer.call(name, fn, (result, path, *args), kwargs)
            tracer.count("harness.write_csv.bytes", os.path.getsize(path))
            return out
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


class Patches:
    """The wrappers installed for one tracer, and how to take them out."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self, tracer: Tracer) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "csiguard" or n.startswith("csiguard."))]
        for module, attr in FUNCTIONS:
            owner = sys.modules.get(f"csiguard.{module}")
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            traced = _wrapper(tracer, span_name(module, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        for module, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(f"csiguard.{module}"), cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            name = f"{module.lstrip('_')}.{cls_name}.{attr}"
            self._set(cls, attr, _wrapper(tracer, name, original))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


def summarize(spans) -> dict:
    """Per span name: calls, total seconds, self seconds; plus step gaps.

    Self time is the span's duration minus the time its direct children
    cover.  Step gaps are the differences between consecutive starts of
    ``STEP_SPAN`` spans under the same ``BATCH_SPAN`` span, in ms.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    step_starts: dict[int, list[float]] = defaultdict(list)
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        if name == STEP_SPAN and parent >= 0 and spans[parent][0] == BATCH_SPAN:
            step_starts[parent].append(start)
    gaps = []
    for starts in step_starts.values():
        gaps.extend(1e3 * (b - a) for a, b in zip(starts, starts[1:]))
    return {"spans": dict(stats), "step_gaps_ms": gaps}
