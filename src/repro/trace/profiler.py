"""Sim-aware profiler: wall-clock self-time per sim process/handler.

The discrete-event kernel spends its wall-clock time inside event callbacks
— almost always a bound :meth:`Process._resume`, i.e. one step of a sim
process generator.  :class:`SimProfiler` hooks the kernel's callback loop
(via :attr:`Environment._profiler_factory`, mirroring the sanitizer's tracer
hook) and attributes elapsed ``time.perf_counter_ns`` to the process (or
handler) that ran, so later perf PRs know where the hot paths are.

It also times the harness's end-of-run ``gc.collect()`` (see
:meth:`SimProfiler.collect_garbage`) and records how many GC-tracked objects
were still alive when the run ended, so a leak of kernel objects shows up in
``repro profile`` rather than only in a process's peak RSS.

Wall-clock readings are host-dependent and therefore **nondeterministic**;
they never enter the sim, the trace event bus, or the deterministic
exporters — the profiler's only output is its own report.  (This is the one
framework-sanctioned use of ``time.perf_counter``; see the NDLint
framework allowlist in :mod:`repro.analysis.rules`.)
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.core import Environment, Process


@dataclass(frozen=True)
class ProfileRow:
    name: str
    calls: int
    total_ms: float

    @property
    def mean_us(self) -> float:
        return (self.total_ms * 1000.0 / self.calls) if self.calls else 0.0


def _attribution_key(callback: Callable[..., Any], event: Any) -> str:
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Process):
        return f"process:{owner.name}"
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        return f"handler:{qualname}"
    return f"event:{type(event).__name__}"


class SimProfiler:
    """Accumulates wall-clock self-time keyed by sim process/handler name."""

    __slots__ = ("_calls", "_total_ns", "steps", "gc_sweeps", "gc_tracked", "gc_collect_ns")

    def __init__(self) -> None:
        self._calls: Dict[str, int] = {}
        self._total_ns: Dict[str, int] = {}
        self.steps = 0
        #: End-of-run collections timed by :meth:`collect_garbage`.
        self.gc_sweeps = 0
        #: GC-tracked objects alive when a run ended (the largest, merged).
        self.gc_tracked = 0
        self.gc_collect_ns = 0

    def on_step(self, when: float, priority: int, event: Any) -> None:
        self.steps += 1

    def begin(self) -> int:
        return time.perf_counter_ns()

    def record(self, event: Any, callback: Callable[..., Any], started_ns: int) -> None:
        elapsed = time.perf_counter_ns() - started_ns
        key = _attribution_key(callback, event)
        self._calls[key] = self._calls.get(key, 0) + 1
        self._total_ns[key] = self._total_ns.get(key, 0) + elapsed

    def collect_garbage(self) -> None:
        """Run the end-of-run ``gc.collect()``, recording the GC-tracked
        object count just before it and the seconds it takes."""
        self.gc_tracked = max(self.gc_tracked, len(gc.get_objects()))
        started = time.perf_counter_ns()
        gc.collect()
        self.gc_collect_ns += time.perf_counter_ns() - started
        self.gc_sweeps += 1

    def rows(self, top: Optional[int] = None) -> List[ProfileRow]:
        rows = [
            ProfileRow(name, self._calls[name], self._total_ns[name] / 1e6)
            for name in self._calls
        ]
        rows.sort(key=lambda row: (-row.total_ms, row.name))
        return rows[:top] if top is not None else rows

    def total_ms(self) -> float:
        return sum(self._total_ns.values()) / 1e6

    def merge(self, other: "SimProfiler") -> None:
        for name, calls in other._calls.items():
            self._calls[name] = self._calls.get(name, 0) + calls
            self._total_ns[name] = self._total_ns.get(name, 0) + other._total_ns[name]
        self.steps += other.steps
        self.gc_sweeps += other.gc_sweeps
        self.gc_tracked = max(self.gc_tracked, other.gc_tracked)
        self.gc_collect_ns += other.gc_collect_ns

    def report(self, top: int = 10) -> str:
        rows = self.rows(top)
        if not rows:
            return "profiler: no callbacks recorded"
        width = max(len(row.name) for row in rows)
        lines = [
            f"profiler: {self.steps} kernel steps, "
            f"{self.total_ms():.1f} ms attributed self-time",
            f"  {'where':<{width}}  {'calls':>8}  {'total ms':>9}  {'mean µs':>8}",
        ]
        for row in rows:
            lines.append(
                f"  {row.name:<{width}}  {row.calls:>8}  "
                f"{row.total_ms:>9.2f}  {row.mean_us:>8.1f}"
            )
        if self.gc_sweeps:
            lines.append(
                f"gc at run end: {self.gc_tracked} GC-tracked objects live "
                f"(largest of {self.gc_sweeps} runs), final gc.collect() "
                f"{self.gc_collect_ns / 1e9:.3f} s in total"
            )
        return "\n".join(lines)


def merge_profiles(profilers: List[SimProfiler]) -> SimProfiler:
    merged = SimProfiler()
    for profiler in profilers:
        merged.merge(profiler)
    return merged


@contextmanager
def profiling() -> Iterator[List[SimProfiler]]:
    """Attach a :class:`SimProfiler` to every Environment built in scope.

    Mirrors ``repro.analysis.sanitizer.traced_environments``: swaps the
    class-level factory and restores it on exit.  Yields the (mutable) list
    of profilers, one per environment constructed inside the block.
    """

    profilers: List[SimProfiler] = []

    def factory() -> SimProfiler:
        profiler = SimProfiler()
        profilers.append(profiler)
        return profiler

    previous = Environment._profiler_factory
    Environment._profiler_factory = staticmethod(factory)
    try:
        yield profilers
    finally:
        Environment._profiler_factory = previous
