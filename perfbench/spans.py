"""Span tracing of ushrink's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``ushrink`` module that holds it (the package re-exports names and
modules import each other by name, so one function can sit under several
module attributes).  Each wrapper records a span (name, start, end, parent),
a call count and, for the functions listed with ``peak=True`` while
``track_peaks`` is set, the peak ``tracemalloc`` allocation inside the call.  Spans stay in flat arrays in
memory and are written out by ``save``.  Span times are process CPU times,
so time the hypervisor gives to other guests is left out, as in the
benchmark's ``cpu_s``.  Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _mc_detail_counts(args, kwargs, result) -> dict:
    reps = kwargs["reps"] if "reps" in kwargs else args[3]
    return {"simulate.replications": int(reps)}


def _gram_counts(args, kwargs, result) -> dict:
    n, d = result.entries.shape[0], np.shape(args[1])[-1]
    # bytes of the (n, n, d) float64 difference array the kernel computes
    return {"kernels.gram.entries": n * n,
            "kernels.gram.bytes_computed": n * n * d * 8}


def _read_dataset_counts(args, kwargs, result) -> dict:
    return {"cli.read_dataset.rows": int(np.shape(result)[0])}


@dataclass(frozen=True)
class Target:
    """One traced function: ``ushrink.<module>.<attr>``."""

    module: str
    attr: str
    peak: bool = False
    counts: Callable[..., dict] | None = None
    count_names: tuple = ()

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


# The layer boundaries the benchmark measures; names are the per-layer
# metric prefixes in BENCHMARK.json.
TARGETS = (
    Target("simulate", "mc_detail", counts=_mc_detail_counts,
           count_names=("simulate.replications",)),
    Target("simulate", "sample"),
    Target("simulate", "summarize_errors"),
    Target("simulate", "gaussian_kernel_location_moment"),
    Target("normalmean", "mu_check_c"),
    Target("kernels", "gram", peak=True, counts=_gram_counts,
           count_names=("kernels.gram.entries", "kernels.gram.bytes_computed")),
    Target("shrinkage", "shrink_mean"),
    Target("shrinkage", "shrink_covop", peak=True),
    Target("shrinkage", "shrink_covop_degen", peak=True),
    Target("covmat", "shrink_cov_matrix"),
    Target("covmat", "spectral_summaries"),
    Target("covmat", "dist_sq_identity"),
    Target("cli", "read_dataset", peak=True, counts=_read_dataset_counts,
           count_names=("cli.read_dataset.rows",)),
    Target("cli", "run"),
)


@dataclass
class _PeakFrame:
    base: int
    peak: int


@dataclass
class Tracer:
    """Records spans and counts for ``TARGETS`` while installed."""

    targets: tuple = TARGETS
    track_peaks: bool = True
    name_ids: array = field(default_factory=lambda: array("i"))
    parents: array = field(default_factory=lambda: array("q"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    calls: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    peaks: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _peak_stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ushrink" or key.startswith("ushrink."))]
        for tid, target in enumerate(self.targets):
            original = getattr(sys.modules[f"ushrink.{target.module}"], target.attr)
            wrapper = self._wrap(tid, target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, tid: int, target: Target, fn):
        name = target.name
        stack, starts, ends = self._stack, self.starts, self.ends
        # process CPU time, like the benchmark's end-to-end cpu_s
        clock = time.process_time

        def wrapper(*args, **kwargs):
            idx = len(starts)
            self.name_ids.append(tid)
            self.parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            self.calls[name] = self.calls.get(name, 0) + 1
            peak = target.peak and self.track_peaks
            if peak:
                self._peak_enter()
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if peak:
                    self._peak_exit(name)
            if target.counts is not None:
                for key, value in target.counts(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- tracemalloc peaks, correct under nesting ---------------------------

    def _peak_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            outer = self._peak_stack[-1]
            outer.peak = max(outer.peak, peak)
        tracemalloc.reset_peak()
        self._peak_stack.append(_PeakFrame(base=current, peak=current))

    def _peak_exit(self, name: str) -> None:
        frame = self._peak_stack.pop()
        frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
        self.peaks[name] = max(self.peaks.get(name, 0), frame.peak - frame.base)
        if self._peak_stack:
            outer = self._peak_stack[-1]
            outer.peak = max(outer.peak, frame.peak)
        else:
            tracemalloc.stop()

    # -- results -----------------------------------------------------------

    def reset_round(self) -> int:
        """Clear per-round counts; returns the index of the round's first span."""
        self.calls.clear()
        self.counters.clear()
        self.peaks.clear()
        return len(self.starts)

    def round_metrics(self, first_span: int) -> dict:
        """Per-layer metrics of the spans recorded since ``first_span``."""
        ids = _copy(self.name_ids, np.int32)[first_span:]
        parents = _copy(self.parents, np.int64)[first_span:]
        dur = (_copy(self.ends, np.float64) - _copy(self.starts, np.float64))[first_span:]
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent] - first_span,
                                 weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(ids, weights=dur - child_time,
                                minlength=len(self.targets))
        out = {}
        for tid, target in enumerate(self.targets):
            name = target.name
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = float(self_time[tid])
            if target.peak:
                out[f"{name}.peak_alloc_mb"] = self.peaks.get(name, 0) / 2**20
            for key in target.count_names:
                out[key] = self.counters.get(key, 0)
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array([t.name for t in self.targets]),
            name_id=_copy(self.name_ids, np.int32),
            parent=_copy(self.parents, np.int64),
            start=_copy(self.starts, np.float64),
            end=_copy(self.ends, np.float64),
        )


def _copy(values: array, dtype) -> np.ndarray:
    # a copy, so no numpy view pins the array's buffer while it can still grow
    return np.frombuffer(values, dtype=dtype).copy()
