"""Experiment runner: one simulated job, measured the paper's way.

Wraps the whole lifecycle: build the world (broker, DFS, external service),
deploy a job graph under a given config, attach throughput/latency sampling,
inject failures at scheduled instants, run, and return an
:class:`ExperimentResult` with the metrics every figure of Section 7 needs.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import JobConfig
from repro.external.http import ExternalService
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraph
from repro.metrics.collectors import (
    LatencyPoint,
    ThroughputSample,
    latency_points,
    percentile,
    recovery_time,
    throughput_dip,
)
from repro.runtime.jobmanager import JobManager
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class RunCounts:
    """Deterministic protocol-volume counts of one run (host-independent)."""

    kernel_events: int
    source_polls: int


#: Where :func:`run_experiment` reports each run's counts while a
#: :func:`counting_runs` block is open; read after the run, so zero events.
_run_counts: Optional[List[RunCounts]] = None


@contextmanager
def counting_runs() -> Iterator[List[RunCounts]]:
    """Collect the :class:`RunCounts` of every experiment run inside the
    ``with`` block, in run order."""
    global _run_counts
    previous = _run_counts
    _run_counts = counts = []
    try:
        yield counts
    finally:
        _run_counts = previous


@contextmanager
def _gc_paused(profiler=None) -> Iterator[None]:
    """Pause cyclic GC for the duration of a simulation run.

    The event loop allocates tens of millions of short-lived objects whose
    refcounts go to zero immediately; generational collection buys nothing
    there but costs ~30% of wall time re-scanning the survivors (the event
    heap, logs, and stores).  Nothing in the simulator relies on collection
    *timing* — resources are released explicitly, never via finalizers — so
    pausing is schedule-neutral.  Whatever becomes cyclic garbage meanwhile
    stays in memory until the run ends — mostly the channel, gate and store
    state of task incarnations torn down by failures; the kernel builds no
    per-event cycles (a decided :class:`repro.sim.core.AnyOf` is freed by
    refcount).  The previous GC state is restored on exit and one
    collection sweeps that garbage; with the sim profiler attached
    (``profiler``), it counts and times the sweep.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            if profiler is None:
                gc.collect()
            else:
                profiler.collect_garbage()


class SourceProgressSampler:
    """Samples total records ingested by the sources: the saturation-side
    throughput measure used for the overhead experiments (the output rate of
    windowed queries is too bursty to compare)."""

    def __init__(self, env: Environment, jm: JobManager, period: float = 1.0 / 3.0):
        self.env = env
        self.jm = jm
        self.period = period
        self.samples: List[ThroughputSample] = []
        self._last = 0
        self._proc = env.process(self._run(), name="source-progress")

    def _total_offset(self) -> int:
        total = 0
        for vertex in self.jm.vertices.values():
            if vertex.is_source and vertex.task is not None:
                total += getattr(vertex.task.operator, "offset", 0)
        return total

    def _run(self):
        while True:
            yield self.env.timeout(self.period)
            total = self._total_offset()
            self.samples.append(
                ThroughputSample(self.env.now, (total - self._last) / self.period)
            )
            self._last = total

    def mean_rate(self, start: float = 0.0, end: float = float("inf")) -> float:
        rates = [s.records_per_second for s in self.samples if start <= s.time <= end]
        return sum(rates) / len(rates) if rates else 0.0

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.kill()


@dataclass
class ExperimentResult:
    """Everything a figure needs from one run."""

    config: JobConfig
    jm: JobManager
    log: DurableLog
    out_topic: str
    duration: float
    output_throughput: List[ThroughputSample]
    input_throughput: List[ThroughputSample]
    failures: List[Tuple[float, str]]
    recovery_events: List[Tuple[float, str, str]]
    #: Placements that had to break a (anti-)affinity constraint — non-zero
    #: means some recovery lost its fault-isolation guarantee.
    affinity_violations: int = 0
    #: The armed chaos engine, when the run had a fault plan.
    chaos: Optional[object] = None

    @property
    def latencies(self) -> List[LatencyPoint]:
        return latency_points(self.log, self.out_topic)

    def sustained_input_rate(self, warmup: float = 2.0) -> float:
        rates = [
            s.records_per_second
            for s in self.input_throughput
            if s.time >= warmup
        ]
        return sum(rates) / len(rates) if rates else 0.0

    def latency_percentile(self, q: float, start: float = 0.0,
                           end: float = float("inf")) -> float:
        values = [p.latency for p in self.latencies if start <= p.time <= end]
        return percentile(values, q)

    def recovery_time_after(self, failure_index: int = 0, **kwargs) -> Optional[float]:
        when = self.failures[failure_index][0]
        return recovery_time(self.latencies, when, **kwargs)

    def throughput_dip_after(self, failure_index: int = 0) -> Tuple[float, float]:
        when = self.failures[failure_index][0]
        return throughput_dip(self.output_throughput, when)

    def output_values(self) -> list:
        return [entry.value for entry in self.log.read_all(self.out_topic)]


def run_experiment(
    graph_fn: Callable[[DurableLog, Optional[ExternalService]], JobGraph],
    config: JobConfig,
    duration: Optional[float] = None,
    kills: Sequence[Tuple[float, str]] = (),
    out_topic: str = "out",
    with_external: bool = False,
    limit: float = 3600.0,
    sample_period: float = 1.0 / 3.0,
    fault_plan=None,
) -> ExperimentResult:
    """Run one experiment to completion (finite input) or for ``duration``.

    ``graph_fn(log, external)`` builds the job graph, creating its input
    topics on ``log``.  ``fault_plan`` (a :class:`repro.chaos.FaultPlan`)
    arms a chaos engine against the deployed job before it runs.
    """
    env = Environment()
    log = DurableLog()
    external = (
        ExternalService(env, RandomStreams(config.seed)) if with_external else None
    )
    graph = graph_fn(log, external)
    jm = JobManager(env, graph, config, external=external)
    jm.deploy()
    engine = None
    if fault_plan is not None:
        from repro.chaos.engine import ChaosEngine

        engine = ChaosEngine(jm, fault_plan)
        engine.arm()

    from repro.metrics.collectors import ThroughputSampler

    out_sampler = ThroughputSampler(env, log, out_topic, period=sample_period)
    in_sampler = SourceProgressSampler(env, jm, period=sample_period)
    for when, victim in kills:
        env.schedule_callback(when, lambda name=victim: jm.kill_task(name))

    with _gc_paused(env.profiler):
        if duration is not None:
            deadline = env.now + duration
            queue = env._queue
            step = env.step
            crashed = jm.crashed
            finished = jm._job_finished
            while queue and queue[0][0] <= deadline:
                if crashed:
                    name, exc = crashed[0]
                    from repro.errors import RecoveryStallError

                    if isinstance(exc, RecoveryStallError):
                        raise exc
                    raise RuntimeError(f"task {name} crashed: {exc!r}") from exc
                if finished():
                    break
                step()
        else:
            jm.run_until_done(limit=limit)
    out_sampler.stop()
    in_sampler.stop()
    if _run_counts is not None:
        _run_counts.append(RunCounts(env.events_popped, log.fetches))
    return ExperimentResult(
        config=config,
        jm=jm,
        log=log,
        out_topic=out_topic,
        duration=env.now,
        output_throughput=out_sampler.samples,
        input_throughput=in_sampler.samples,
        failures=list(jm.failures_injected),
        recovery_events=list(jm.recovery_events),
        affinity_violations=jm.cluster.affinity_violations,
        chaos=engine,
    )
