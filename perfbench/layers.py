"""Per-layer tracing for the benchmark's traced run.

A :class:`Tracer` wraps the public functions at each layer boundary of the
simulator (the table in ``perfbench/README.md``) and records, per wrapped
call, a span: name, start, end and the span that was open when it started.
A layer's self time is the sum of its spans' durations minus the part of
them covered by other wrapped calls nested inside.  Counts are recorded at
the same boundaries, so ratios are measured where the work happens.

Generator functions (the simulator's blocking calls, such as
``OutputChannel.flush``) return before doing any work, so the tracer wraps
the generator they return and times each resume of it as its own span.

Wrappers replace each function under every name its callers resolve: the
class attribute for methods, and every ``repro.*`` module global bound to
the same object for module functions (``from ... import combine`` binds its
own name).  :func:`install` must run before the ``Environment`` is built, so
that bound methods cached by the simulator at construction are the
wrappers.  Observation is passive: the wrappers schedule no events and
change no values, which the benchmark checks by comparing the traced run's
sink digest and kernel event count with an untraced run's.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional

#: Layers in report order; ``runtime`` holds task and job-manager code that
#: no finer wrapper claims (process resumes and job-manager entry points).
LAYERS = (
    "sim",
    "runtime",
    "source",
    "nexmark",
    "net",
    "causal",
    "inflight",
    "integrity",
    "operators",
    "state",
    "recovery",
)

#: Spans kept in memory per run and written out when the run ends; counts
#: and self times always cover every call.
SPAN_CAP = 100_000


class Tracer:
    """Span recorder and counter store for one traced run."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.names: List[str] = []
        #: Open spans: [name index, layer, start, child time, count key, id].
        self.stack: List[list] = []
        #: Closed spans: (id, parent id, name index, start, end).
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self._next_id = 1
        #: Program objects whose own counters are read after the run.
        self.tracked: Dict[str, Dict[int, Any]] = defaultdict(dict)

    # -- spans ---------------------------------------------------------------

    def _open(self, name_idx: int, layer: str, count: Optional[str]) -> list:
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [name_idx, layer, time.perf_counter(), 0.0, count, span_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame[2]
        self.self_s[frame[1]] += duration - frame[3]
        parent = 0
        if stack:
            top = stack[-1]
            top[3] += duration
            parent = top[5]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[5], parent, frame[0], frame[2], end))
        else:
            self.spans_dropped += 1

    def track(self, kind: str, obj: Any) -> None:
        self.tracked[kind][id(obj)] = obj

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        func: Callable,
        name: str,
        layer: str,
        count: Optional[str] = None,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
        on_return: Optional[Callable] = None,
    ) -> Callable:
        """A traced stand-in for ``func``.

        ``count`` is incremented once per call, except for a call made from
        inside a span with the same count key (a ``super()`` call).
        ``post(args, result, pre(args))`` sees each call's result and
        ``on_return(args, value)`` the return value of a generator result.
        """
        name_idx = len(self.names)
        self.names.append(name)
        tracer = self
        counts = self.counts
        stack = self.stack
        open_span = self._open
        close_span = self._close

        def traced(*args, **kwargs):
            if count is not None and not (stack and stack[-1][4] == count):
                counts[count] += 1
            state = pre(args) if pre is not None else None
            frame = open_span(name_idx, layer, count)
            try:
                result = func(*args, **kwargs)
            finally:
                close_span(frame)
            if post is not None:
                post(args, result, state)
            if type(result) is GeneratorType:
                return tracer._resumes(result, name_idx, layer, args, on_return)
            return result

        traced.__name__ = getattr(func, "__name__", name)
        traced.__qualname__ = getattr(func, "__qualname__", name)
        traced.__doc__ = func.__doc__
        traced.__wrapped__ = func
        return traced

    def _resumes(self, gen, name_idx, layer, args, on_return):
        """Drive ``gen`` transparently, one span per resume."""
        send_value = None
        pending_exc: Optional[BaseException] = None
        while True:
            finished = False
            frame = self._open(name_idx, layer, None)
            try:
                if pending_exc is None:
                    yielded = gen.send(send_value)
                else:
                    exc, pending_exc = pending_exc, None
                    yielded = gen.throw(exc)
            except StopIteration as stop:
                finished = True
                value = stop.value
            finally:
                self._close(frame)
            if finished:
                if on_return is not None:
                    on_return(args, value)
                return value
            try:
                send_value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen, like yield from
                pending_exc = exc
                send_value = None

    def patch_method(self, cls: type, attr: str, layer: str, **hooks) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it as a plain method."""
        func = cls.__dict__.get(attr)
        if callable(func) and not isinstance(func, (staticmethod, classmethod)):
            setattr(cls, attr, self.wrap(func, f"{cls.__name__}.{attr}", layer, **hooks))

    def patch_function(self, module, attr: str, layer: str, **hooks) -> None:
        """Wrap ``module.attr`` under every ``repro.*`` global bound to it."""
        func = getattr(module, attr)
        traced = self.wrap(func, f"{module.__name__}.{attr}", layer, **hooks)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is func:
                    namespace[key] = traced

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        payload = {
            "names": self.names,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _subclasses(root: type) -> List[type]:
    seen: List[type] = []
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary named in the README's layer table."""
    # Import every module that defines a wrapped class or binds a wrapped
    # function, so the patches reach all of them.
    import repro.core.output  # noqa: F401  (operator subclasses)
    import repro.harness.figures  # noqa: F401
    import repro.nexmark.queries  # noqa: F401
    import repro.workloads.synthetic  # noqa: F401
    from repro.core import causal_log
    from repro.core.causal_log import CausalLogManager, EpochLog
    from repro.core.inflight_log import InFlightLog
    from repro.core.recovery import RecoveryManager
    from repro.external.kafka import TopicPartition
    from repro.ft.coordinators import BaseCoordinator
    # The package re-exports a function under this module's name.
    fingerprint = importlib.import_module("repro.integrity.fingerprint")
    from repro.net import serialization
    from repro.net.gate import InputGate
    from repro.net.writer import OutputChannel, RecordWriter
    from repro.nexmark.generator import NexmarkGenerator
    from repro.operators.base import Operator
    from repro.operators.source import SourceOperator
    from repro.runtime.jobmanager import JobManager
    from repro.runtime.task import StreamTask
    from repro.sim.core import Environment, Process
    from repro.state.backend import _KeyedView
    from repro.state.snapshot import SnapshotStore

    t = tracer
    counts = t.counts

    # sim: the kernel's dispatch; runtime: the callbacks it dispatches.
    t.patch_method(Environment, "step", "sim", count="sim.events")
    t.patch_method(Process, "_resume", "runtime")

    # sources and the broker
    def poll_post(args, result, _state):
        if not result[0]:
            counts["source.empty_polls"] += 1

    for cls in _subclasses(SourceOperator):
        t.patch_method(cls, "poll", "source", count="source.polls", post=poll_post)
    for cls in _subclasses(TopicPartition):
        t.patch_method(cls, "read", "source", count="kafka.reads")

    t.patch_method(NexmarkGenerator, "generate", "nexmark", count="nexmark.events")

    # net: record path
    def received(buffer) -> None:
        counts["net.buffers"] += 1
        counts["net.records"] += buffer.n_records
        counts["net.bytes"] += buffer.size_bytes

    def poll_buffer_post(args, result, _state):
        if result is not None:
            received(result[1])

    t.patch_method(OutputChannel, "flush", "net")
    for attr in ("emit", "emit_or_gen", "broadcast"):
        t.patch_method(RecordWriter, attr, "net")
    t.patch_method(InputGate, "poll_buffer", "net", post=poll_buffer_post)
    t.patch_method(
        InputGate, "take_from", "net", on_return=lambda args, buf: received(buf)
    )
    for attr in ("payload_size", "element_size"):
        t.patch_function(serialization, attr, "net", count="net.sizings")

    # causal log
    def track_manager(args, _result, _state):
        t.track("causal", args[0])

    def delta_post(args, result, _state):
        t.track("causal", args[0])
        counts["causal.delta_slices"] += len(result[0])
        counts["causal.delta_bytes"] += result[1]

    def merge_delta_pre(args):
        slices = args[1]
        if hasattr(slices, "__len__"):
            counts["causal.slices_offered"] += len(slices)

    def merge_slice_post(args, _result, version_before):
        if args[0].version != version_before:
            counts["causal.useful_merges"] += 1

    for attr in ("append_main", "append_queue"):
        t.patch_method(
            CausalLogManager, attr, "causal",
            count="causal.determinants", post=track_manager,
        )
    t.patch_method(
        CausalLogManager, "delta_for_dispatch", "causal",
        count="causal.deltas", post=delta_post,
    )
    t.patch_method(
        CausalLogManager, "merge_delta", "causal",
        pre=merge_delta_pre, post=track_manager,
    )
    t.patch_method(
        EpochLog, "merge_slice", "causal", count="causal.merge_slices",
        pre=lambda args: args[0].version, post=merge_slice_post,
    )
    t.patch_function(causal_log, "delta_wire_size", "causal")

    # in-flight log
    def track_inflight(args, _result, _state):
        t.track("inflight", args[0])

    t.patch_method(
        InFlightLog, "append", "inflight",
        count="inflight.buffers_logged", post=track_inflight,
    )
    t.patch_method(InFlightLog, "replay", "inflight", post=track_inflight)

    # integrity
    t.patch_function(fingerprint, "combine", "integrity", count="integrity.folds")
    t.patch_function(fingerprint, "fingerprint", "integrity")

    # operators and state
    for cls in _subclasses(Operator):
        t.patch_method(cls, "process", "operators", count="operators.process_calls")
    for cls in _subclasses(_KeyedView):
        for attr in [a for a in vars(cls) if not a.startswith("_")]:
            t.patch_method(cls, attr, "state", count="state.accesses")

    def snapshot_post(_args, snapshot, _state):
        counts["state.snapshot_bytes"] += snapshot.size_bytes

    t.patch_method(
        StreamTask, "build_snapshot", "state",
        count="state.snapshots", post=snapshot_post,
    )
    for attr in ("save", "load"):
        t.patch_method(SnapshotStore, attr, "state")

    # fault tolerance and recovery
    def loaded_post(args, _result, _state):
        manager = args[0]
        counts["recovery.determinants_loaded"] += len(manager._control) + sum(
            len(dets) for dets in manager._values.values()
        )

    for cls in _subclasses(BaseCoordinator):
        t.patch_method(
            cls, "on_failure_detected", "recovery", count="recovery.incidents"
        )
    t.patch_method(RecoveryManager, "load", "recovery", post=loaded_post)
    t.patch_method(JobManager, "kill_task", "recovery")

    # runtime: deployment
    def deploy_post(args, _result, started):
        counts["runtime.deploy_s"] += time.perf_counter() - started
        counts["runtime.tasks_deployed"] += sum(
            1 for vertex in args[0].vertices.values() if vertex.task is not None
        )

    t.patch_method(
        JobManager, "deploy", "runtime",
        pre=lambda args: time.perf_counter(), post=deploy_post,
    )


#: Per-layer metrics reported by the traced run: name -> unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_record": "1/rec",
    "sim.self_s": "s",
    "runtime.self_s": "s",
    "runtime.deploy_s": "s",
    "runtime.tasks_deployed": "count",
    "source.polls": "count",
    "source.polls_per_record": "1/rec",
    "source.empty_poll_ratio": "ratio",
    "kafka.reads": "count",
    "source.self_s": "s",
    "nexmark.events": "count",
    "nexmark.self_s": "s",
    "net.buffers": "count",
    "net.records_per_buffer": "rec/buffer",
    "net.bytes": "bytes",
    "net.sizings": "count",
    "net.self_s": "s",
    "causal.determinants": "count",
    "causal.deltas": "count",
    "causal.slices_per_delta": "slices/delta",
    "causal.merge_slices": "count",
    "causal.useful_merge_ratio": "ratio",
    "causal.det_bytes_per_record": "bytes/rec",
    "causal.peak_bytes": "bytes",
    "causal.self_s": "s",
    "inflight.buffers_logged": "count",
    "inflight.buffers_replayed": "count",
    "inflight.peak_buffers": "buffers",
    "inflight.self_s": "s",
    "integrity.folds": "count",
    "integrity.folds_per_record": "1/rec",
    "integrity.self_s": "s",
    "operators.process_calls": "count",
    "operators.self_s": "s",
    "state.accesses": "count",
    "state.snapshots": "count",
    "state.snapshot_bytes": "bytes",
    "state.self_s": "s",
    "recovery.incidents": "count",
    "recovery.determinants_loaded": "count",
    "recovery.self_s": "s",
    "tracing.overhead_ratio": "ratio",
}

#: Counts that must repeat exactly across two traced runs of one seed.
DETERMINISTIC_COUNTS = (
    "sim.events",
    "source.polls",
    "causal.merge_slices",
    "integrity.folds",
    "net.buffers",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, source_records: int) -> Dict[str, float]:
    """The per-layer metrics of one traced run (all but the overhead ratio,
    which needs the untraced runs).  Call after the run has ended."""
    c = tracer.counts
    managers = list(tracer.tracked["causal"].values())
    for manager in managers:
        manager.note_peak()
    logs = list(tracer.tracked["inflight"].values())
    out = {
        "sim.events": c["sim.events"],
        "sim.events_per_record": _ratio(c["sim.events"], source_records),
        "runtime.deploy_s": c["runtime.deploy_s"],
        "runtime.tasks_deployed": c["runtime.tasks_deployed"],
        "source.polls": c["source.polls"],
        "source.polls_per_record": _ratio(c["source.polls"], source_records),
        "source.empty_poll_ratio": _ratio(c["source.empty_polls"], c["source.polls"]),
        "kafka.reads": c["kafka.reads"],
        "nexmark.events": c["nexmark.events"],
        "net.buffers": c["net.buffers"],
        "net.records_per_buffer": _ratio(c["net.records"], c["net.buffers"]),
        "net.bytes": c["net.bytes"],
        "net.sizings": c["net.sizings"],
        "causal.determinants": c["causal.determinants"],
        "causal.deltas": c["causal.deltas"],
        "causal.slices_per_delta": _ratio(c["causal.delta_slices"], c["causal.deltas"]),
        "causal.merge_slices": c["causal.merge_slices"],
        "causal.useful_merge_ratio": _ratio(
            c["causal.useful_merges"], c["causal.slices_offered"]
        ),
        "causal.det_bytes_per_record": _ratio(c["causal.delta_bytes"], source_records),
        "causal.peak_bytes": max((m.peak_bytes_held for m in managers), default=0),
        "inflight.buffers_logged": c["inflight.buffers_logged"],
        "inflight.buffers_replayed": sum(log.buffers_replayed for log in logs),
        "inflight.peak_buffers": max((log.pool.peak_in_use for log in logs), default=0),
        "integrity.folds": c["integrity.folds"],
        "integrity.folds_per_record": _ratio(c["integrity.folds"], source_records),
        "operators.process_calls": c["operators.process_calls"],
        "state.accesses": c["state.accesses"],
        "state.snapshots": c["state.snapshots"],
        "state.snapshot_bytes": c["state.snapshot_bytes"],
        "recovery.incidents": c["recovery.incidents"],
        "recovery.determinants_loaded": c["recovery.determinants_loaded"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    return out
