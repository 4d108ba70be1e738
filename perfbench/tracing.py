"""Outside-in span tracing of the repro layers.

Nothing under ``src/`` records anything: :func:`install` wraps each
layer's public functions (and the runner's worker entry points) from
here, so the traced pass sees the program exactly as users call it.

A span is ``[layer, thread, t0, t1, parent, count, attrs]``: ``parent``
is the index of the enclosing span on the same thread (``-1`` for a
root), ``count`` is 1 for a call and 0 for the continuation segments of
a lazy generator (a generator span is the time spent *inside* its
``next()`` calls, from the first one until exhaustion, so consumer work
between items is never charged to it).  Spans stay in memory; forked
workers write theirs to one JSON file each when they exit, and
:func:`layer_metrics` merges parent and worker spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from multiprocessing import util as mp_util

LAYER = 0
THREAD = 1
T0 = 2
T1 = 3
PARENT = 4
COUNT = 5
ATTRS = 6

#: Root spans: a timed phase of a traced batch in the parent, a dispatch
#: chunk in a worker.  They mark the windows and busy time; their own
#: self time is the unattributed gap.
PASS = "bench.pass"
CHUNK = "core.runner.chunk"

#: Experiments whose wall time is reported on its own (~75% of the quick
#: reproduction).
EXPERIMENT_WALLS = ("fig19", "table1", "fig07", "fig24", "ext_predict",
                    "ext_aware", "fig15")

_TENSOR_KEYS = ("cohorts", "columns", "slots", "seconds", "predraw_s", "pass_s",
                "batched_s", "flush_s", "cells", "dirty_periods",
                "residual_periods", "native_periods")


class Recorder:
    """In-memory span log of one process (reset in forked children)."""

    def __init__(self, dump_dir: str | Path | None = None) -> None:
        self.spans: list[list] = []
        self.dump_dir = str(dump_dir) if dump_dir is not None else None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._needs_finalizer = False
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._needs_finalizer = self.dump_dir is not None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, count: int = 1) -> int:
        if self._needs_finalizer:
            # Registered here, not at fork: multiprocessing clears the
            # finalizer registry when a forked worker bootstraps.
            self._needs_finalizer = False
            mp_util.Finalize(None, self.dump, exitpriority=10)
        stack = self._stack()
        span = [layer, threading.get_ident(), time.perf_counter(), None,
                stack[-1] if stack else -1, count, None]
        with self._lock:  # a worker's store writer thread records too
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def exit(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[T1] = time.perf_counter()
        if attrs:
            span[ATTRS] = attrs
        self._stack().pop()

    def dump(self) -> None:
        """Write this process's spans to ``dump_dir`` (worker exit hook)."""
        path = Path(self.dump_dir) / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([s for s in self.spans if s[T1] is not None]))
        os.replace(tmp, path)

    def traced_call(self, layer: str, fn, *args, **kwargs):
        index = self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(index)

    def traced_generator(self, layer: str, gen, on_done):
        """Yield from ``gen``, recording each ``next()`` as a segment of
        one ``layer`` span; ``on_done()`` returns the attrs stored on the
        last segment once the generator is exhausted or closed."""
        count = 1
        last = None
        try:
            while True:
                index = self.enter(layer, count)
                count = 0
                last = index
                try:
                    item = next(gen)
                except StopIteration:
                    self.exit(index)
                    return
                except BaseException:
                    self.exit(index)
                    raise
                self.exit(index)
                yield item
        finally:
            attrs = on_done()
            if last is not None and attrs:
                self.spans[last][ATTRS] = attrs


# ---------------------------------------------------------------------- #
# Installing the wrappers
# ---------------------------------------------------------------------- #
def _rebind(original, replacement) -> None:
    """Point every ``repro`` module binding of ``original`` at
    ``replacement`` (modules import functions by name)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _trace_bytes(trace) -> int:
    from repro.xcal.records import TRACE_COLUMNS

    return sum(getattr(trace, name).nbytes for name in TRACE_COLUMNS)


def install(rec: Recorder) -> None:
    """Wrap every traced layer entry point; import the modules first so
    each binding exists to be rebound."""
    from repro.apps.video import StreamingSession
    from repro.channel.model import ChannelModel, SyntheticChannel
    from repro.core import runner
    from repro.core.reduce import CampaignReduction
    from repro.ran import _native, simulator, tensor
    from repro.store import TraceStore
    from repro.xcal import dataset
    from repro.xcal.records import SlotTrace

    def plain(layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.traced_call(layer, fn, *args, **kwargs)
        return wrapper

    def sessions(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = rec.enter("ran.simulator")
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                traces = result if isinstance(result, list) else [result]
                traces = [t for t in traces if isinstance(t, SlotTrace)]
                rec.exit(index, {"sessions": len(traces),
                                 "slots": sum(len(t) for t in traces),
                                 "sim_s": sum(t.duration_s for t in traces)})
        return wrapper

    def cohort(fn):
        @functools.wraps(fn)
        def wrapper(cell, channels, *args, **kwargs):
            before = tensor.cohort_stats()
            gen = fn(cell, channels, *args, **kwargs)

            def done() -> dict:
                after = tensor.cohort_stats()
                attrs = {key: after[key] - before[key] for key in _TENSOR_KEYS}
                attrs["native"] = int(_native.kernel_status()["available"])
                attrs["sim_s"] = sum(ch.duration_s for ch in channels)
                return attrs

            return rec.traced_generator("ran.tensor", gen, done)
        return wrapper

    def tasks(fn):
        @functools.wraps(fn)
        def wrapper(tasks, *args, **kwargs):
            manifest = list(tasks)
            widths = [len(g) for g in runner.group_tasks_by_shape(manifest)]
            index = rec.enter("core.runner")
            result = None
            try:
                result = fn(manifest, *args, **kwargs)
                return result
            finally:
                rec.exit(index, {"widths": widths})
                if isinstance(result, list):
                    rec.spans[index][ATTRS]["result_bytes"] = sum(
                        _trace_bytes(r) for r in result if isinstance(r, SlotTrace))
        return wrapper

    for original, wrapper in (
            (simulator.simulate_downlink, sessions(simulator.simulate_downlink)),
            (simulator.simulate_uplink, sessions(simulator.simulate_uplink)),
            (simulator.simulate_downlink_multi,
             sessions(simulator.simulate_downlink_multi)),
            (tensor.simulate_downlink_cohort, cohort(tensor.simulate_downlink_cohort)),
            (tensor.simulate_uplink_cohort, cohort(tensor.simulate_uplink_cohort)),
            (runner.run_tasks, tasks(runner.run_tasks)),
            (dataset.generate_campaign, plain("xcal.dataset", dataset.generate_campaign)),
    ):
        _rebind(original, wrapper)
    # The worker entry points are submitted by module-global name, so a
    # fork of this process unpickles the wrapped versions.
    for name in ("_execute_chunk_plain", "_execute_chunk_routed",
                 "_execute_chunk_reduced", "_execute_chunk_shm"):
        setattr(runner, name, plain(CHUNK, getattr(runner, name)))
    # The cohort runner is bound into the runner's registry at import:
    # wrapping the module attribute alone would never be called.
    runner.register_cohort_runner(
        dataset.run_session,
        plain("xcal.dataset", dataset.run_session_cohort), accepts_arena=True)
    for cls, method, layer in (
            (ChannelModel, "realize", "channel"),
            (SyntheticChannel, "realize", "channel"),
            (StreamingSession, "run", "apps.video"),
            (TraceStore, "get", "store.get"),
            (TraceStore, "read", "store.get"),
            (TraceStore, "put", "store.put"),
            (CampaignReduction, "fold", "core.reduce.fold"),
            (CampaignReduction, "merge", "core.reduce.merge"),
    ):
        setattr(cls, method, plain(layer, getattr(cls, method)))


# ---------------------------------------------------------------------- #
# Reading spans back
# ---------------------------------------------------------------------- #
def load_worker_spans(dump_dir: str | Path) -> list[list[list]]:
    """Span lists of every worker that dumped into ``dump_dir``."""
    return [json.loads(path.read_text())
            for path in sorted(Path(dump_dir).glob("spans-*.json"))]


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part covered by its direct
    children (children on one thread never overlap each other)."""
    own = [s[T1] - s[T0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[T1] - s[T0]
    return own


def _within(span: list, windows: list[tuple[float, float]]) -> bool:
    return any(lo <= span[T0] and span[T1] <= hi for lo, hi in windows)


class _Totals:
    """Per-layer sums over the spans of one or more processes."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.attrs: dict[str, list[dict]] = {}

    def add(self, spans: list[list], windows: list[tuple[float, float]]) -> None:
        own = self_times(spans)
        for i, s in enumerate(spans):
            if not _within(s, windows):
                continue
            layer = s[LAYER]
            self.calls[layer] = self.calls.get(layer, 0) + s[COUNT]
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own[i]
            # Busy time counts each layer's outermost spans only, so a
            # layer re-entered below itself is not double counted.
            parent = s[PARENT]
            while parent >= 0 and spans[parent][LAYER] != layer:
                parent = spans[parent][PARENT]
            if parent < 0:
                self.busy[layer] = self.busy.get(layer, 0.0) + s[T1] - s[T0]
            if s[ATTRS]:
                self.attrs.setdefault(layer, []).append(s[ATTRS])

    def attr_sum(self, layer: str, key: str) -> float:
        return sum(a.get(key, 0) for a in self.attrs.get(layer, []))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(parent_spans: list[list], worker_spans: list[list[list]],
                  batches: int, workers: int) -> dict[str, float]:
    """Per-layer metrics of the traced batches, per batch.

    Windows are the parent's :data:`PASS` spans; worker spans count when
    they fall inside one.  Ratios are over the whole traced pass.
    """
    windows = [(s[T0], s[T1]) for s in parent_spans if s[LAYER] == PASS]
    parent = _Totals()
    parent.add(parent_spans, windows)
    side = _Totals()
    for spans in worker_spans:
        side.add(spans, windows)
    both = _Totals()
    both.add(parent_spans, windows)
    for spans in worker_spans:
        both.add(spans, windows)

    def per(value: float) -> float:
        return value / batches

    tensor = {key: both.attr_sum("ran.tensor", key) for key in _TENSOR_KEYS}
    tensor_busy = both.busy.get("ran.tensor", 0.0)
    sim_busy = both.busy.get("ran.simulator", 0.0)
    runner_busy = parent.busy.get("core.runner", 0.0)
    experiment_walls = {eid: 0.0 for eid in EXPERIMENT_WALLS}
    for s in parent_spans:
        if s[LAYER] == "experiments" and _within(s, windows):
            eid = (s[ATTRS] or {}).get("id")
            if eid in experiment_walls:
                experiment_walls[eid] += s[T1] - s[T0]
    metrics = {
        "ran.simulator.calls": per(both.calls.get("ran.simulator", 0)),
        "ran.simulator.busy_s": per(sim_busy),
        "ran.simulator.slots": per(both.attr_sum("ran.simulator", "slots")),
        "ran.simulator.slots_per_busy_s": _ratio(
            both.attr_sum("ran.simulator", "slots"), sim_busy),
        "channel.calls": per(both.calls.get("channel", 0)),
        "channel.busy_s": per(both.busy.get("channel", 0.0)),
        "ran.tensor.cohorts": per(tensor["cohorts"]),
        "ran.tensor.columns": per(tensor["columns"]),
        "ran.tensor.busy_s": per(tensor_busy),
        "ran.tensor.slots_per_busy_s": _ratio(tensor["slots"], tensor_busy),
        "ran.tensor.predraw_s": per(tensor["predraw_s"]),
        "ran.tensor.pass_s": per(tensor["pass_s"]),
        "ran.tensor.batched_s": per(tensor["batched_s"]),
        "ran.tensor.flush_s": per(tensor["flush_s"]),
        "ran.tensor.dirty_fraction": _ratio(tensor["dirty_periods"], tensor["cells"]),
        "ran.tensor.residual_fraction": _ratio(tensor["residual_periods"],
                                               tensor["dirty_periods"]),
        "ran.tensor.native_fraction": _ratio(tensor["native_periods"],
                                             tensor["dirty_periods"]),
        "ran.native.loaded": float(any(a.get("native") for a
                                       in both.attrs.get("ran.tensor", []))),
        "core.runner.busy_s": per(runner_busy),
        "core.runner.wait_s": per(parent.self_s.get("core.runner", 0.0)),
        "core.runner.worker_busy_fraction": _ratio(
            side.busy.get(CHUNK, 0.0), workers * runner_busy),
        "core.runner.result_mb": per(parent.attr_sum("core.runner",
                                                     "result_bytes")) / 1e6,
        "store.get.calls": per(both.calls.get("store.get", 0)),
        "store.get.busy_s": per(both.busy.get("store.get", 0.0)),
        "store.put.calls": per(both.calls.get("store.put", 0)),
        "store.put.busy_s": per(both.busy.get("store.put", 0.0)),
        "core.reduce.fold.calls": per(both.calls.get("core.reduce.fold", 0)),
        "core.reduce.fold.busy_s": per(both.busy.get("core.reduce.fold", 0.0)),
        "core.reduce.merge.busy_s": per(both.busy.get("core.reduce.merge", 0.0)),
        "experiments.self_s": per(parent.self_s.get("experiments", 0.0)),
        "xcal.dataset.self_s": per(both.self_s.get("xcal.dataset", 0.0)),
        "apps.video.sessions": per(both.calls.get("apps.video", 0)),
        "apps.video.busy_s": per(both.busy.get("apps.video", 0.0)),
        "trace.unattributed.parent_s": per(parent.self_s.get(PASS, 0.0)),
        "trace.unattributed.worker_s": per(side.self_s.get(CHUNK, 0.0)),
    }
    for eid, wall in experiment_walls.items():
        metrics[f"experiments.{eid}.wall_s"] = per(wall)
    return metrics


def session_census(spans: list[list]) -> dict[str, object]:
    """Sessions, slots and cohort widths seen in one process's spans.

    A session is one trace from a simulator call or one cohort column;
    sessions simulated outside ``run_tasks`` are cohorts of width 1.
    """
    sessions = slots = 0
    sim_s = 0.0
    widths: dict[int, int] = {}
    for s in spans:
        layer, attrs = s[LAYER], s[ATTRS] or {}
        if layer == "ran.simulator":
            sessions += attrs.get("sessions", 0)
            slots += attrs.get("slots", 0)
            sim_s += attrs.get("sim_s", 0.0)
            parent = s[PARENT]
            while parent >= 0 and spans[parent][LAYER] != "core.runner":
                parent = spans[parent][PARENT]
            if parent < 0:
                widths[1] = widths.get(1, 0) + attrs.get("sessions", 0)
        elif layer == "ran.tensor":
            sessions += attrs.get("columns", 0)
            slots += attrs.get("slots", 0)
            sim_s += attrs.get("sim_s", 0.0)
        elif layer == "core.runner":
            for width in attrs.get("widths", []):
                widths[width] = widths.get(width, 0) + 1
    return {"sessions": sessions, "slots": slots, "sim_s": sim_s, "widths": widths}
