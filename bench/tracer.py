"""In-memory span tracer that wraps rowcover's module attributes from outside.

`Tracer.install` replaces the public functions of each layer (and one
private inner kernel) with wrappers that record a span per call: name,
start, end, parent span and the operation (trace id) it belongs to.
Nothing under `src/` is edited.  Internal calls resolve module globals at
call time, so wrapping the attribute in every module that imported the
function catches calls made from inside the package too.  Calls made
outside an operation, such as the benchmark's own output checks, pass
through untraced.

Spans are held in typed arrays while the workload runs and written out
once, at the end.  A span's self time is its duration minus the durations
of its child spans (children never overlap: one thread).
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Module -> attributes to wrap.  A function imported into several modules
# is wrapped in each, under one span name.  Missing attributes are skipped.
LAYERS = {
    "rowcover._streams": ("spawn_generator", "derive_seed"),
    "rowcover.montecarlo": (
        "sample_cover_time", "sample_indicator_pattern", "estimate_expected_cover_time",
        "estimate_coverage_probability", "phase_sweep", "coverage_probability",
    ),
    "rowcover.coverage": (
        "exact_expected_cover_time", "phase_sum_raw", "_inner_complement_log",
        "coverage_threshold", "coverage_probability",
    ),
    "rowcover.bounds": ("bound_report", "exact_expected_cover_time"),
    "rowcover.omf": (
        "random_orthogonal", "sample_sparse_matrix", "sample_indicator_pattern",
        "assemble_instance", "row_coverage_check", "coverage_experiment",
        "write_instance", "read_instance",
    ),
}

ROOT_SPAN = "op"


def _tail_terms(counters, args, kwargs, summary):
    # The horizon h satisfies bound = n (1-theta)^(h+1) / theta; h + 1 terms were summed.
    model = args[0]
    counters["exact_expected_cover_time.results"] += 1
    if summary.truncation_error_bound > 0.0:
        terms = np.log(summary.truncation_error_bound * model.theta / model.n) / np.log1p(-model.theta)
        counters["tail_terms"] += int(round(float(terms)))


def _cover_draws(counters, args, kwargs, result):
    counters["draws"] += args[0].n


def _coverage_draws(counters, args, kwargs, result):
    model, p, trials = args[0], args[1], args[2]
    counters["draws"] += model.n * p * trials


def _pattern_draws(counters, args, kwargs, result):
    counters["draws"] += args[0].n * args[1]


def _written_bytes(counters, args, kwargs, result):
    counters["write_instance.bytes"] += os.path.getsize(args[1])


HOOKS = {
    "exact_expected_cover_time": _tail_terms,
    "sample_cover_time": _cover_draws,
    "estimate_coverage_probability": _coverage_draws,
    "sample_indicator_pattern": _pattern_draws,
    "write_instance": _written_bytes,
}


class Tracer:
    """Records nested spans for calls into the wrapped layers."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self.op_labels: list[str] = []
        # Host-speed factor of each operation, set by the caller (see run.py).
        self.op_scales: list[float] = []
        self.counters: Counter = Counter()
        self._name = array("i")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        for module_name, attributes in LAYERS.items():
            module = importlib.import_module(module_name)
            for attribute in attributes:
                original = getattr(module, attribute, None)
                if original is None:
                    continue
                self._restore.append((module, attribute, original))
                setattr(module, attribute, self._wrap(attribute, original, HOOKS.get(attribute)))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._restore):
            setattr(module, attribute, original)
        self._restore.clear()

    def _open(self, name_index: int) -> int:
        slot = len(self._start)
        self._name.append(name_index)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(len(self.op_labels) - 1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(slot)
        return slot

    def _wrap(self, name, function, hook):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        stack, start, end, counters = self._stack, self._start, self._end, self.counters

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            slot = self._open(name_index)
            start[slot] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end[slot] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def run(self, label: str, call):
        """Run one operation as the root span of a new trace."""
        self.op_labels.append(label)
        slot = self._open(0)
        self._start[slot] = perf_counter()
        try:
            return call()
        finally:
            self._end[slot] = perf_counter()
            self._stack.pop()

    def span_count(self) -> int:
        return len(self._start)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, self seconds, and the calls
        whose parent span is each other name (`parents`).  Durations are
        scaled by their operation's host-speed factor when one was set."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int64)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        if len(self.op_scales) == len(self.op_labels):
            duration = duration * np.asarray(self.op_scales)[np.frombuffer(self._op, dtype=np.int64)]
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested], minlength=len(names))
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        busy = np.bincount(names, weights=duration, minlength=width)
        own = np.bincount(names, weights=duration - children, minlength=width)
        parent_names = np.where(nested, names[np.maximum(parents, 0)], -1)
        result = {}
        for index, name in enumerate(self.names):
            mine = names == index
            by_parent = Counter(parent_names[mine & nested].tolist())
            result[name] = {
                "calls": int(calls[index]),
                "busy": float(busy[index]),
                "self": float(own[index]),
                "parents": {self.names[p]: c for p, c in by_parent.items()},
                "distinct_parents": int(np.unique(parents[mine & nested]).size),
            }
        return result

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            op_labels=np.array(self.op_labels),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            op=np.frombuffer(self._op, dtype=np.int64),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
            op_scales=np.asarray(self.op_scales),
        )
