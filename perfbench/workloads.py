"""The benchmark's three workloads, built from the repo's public job builders.

Each workload is one simulated job run through
``repro.harness.experiment.run_experiment``.  Sizes are chosen so one run
takes a few wall seconds on a 2-core host; ``perfbench/README.md`` says why
each workload was chosen and which layers it exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.config import FaultToleranceMode, JobConfig
from repro.harness.figures import experiment_config, nexmark_graph_fn
from repro.workloads.synthetic import synthetic_chain

CLONOS = FaultToleranceMode.CLONOS
ROLLBACK = FaultToleranceMode.GLOBAL_ROLLBACK


@dataclass(frozen=True)
class Workload:
    name: str
    parallelism: int
    events_per_partition: int
    #: Input rate per partition, records per simulated second.
    rate: float
    mode: FaultToleranceMode
    #: Fault tolerance mode of the failure-free reference run.
    reference_mode: FaultToleranceMode
    checkpoint_interval: float
    kills: Tuple[Tuple[float, str], ...]
    #: Duplicates beyond the reference fail the run (exactly-once sinks).
    exactly_once: bool
    #: Whether the seed changes the input records (Nexmark) or only
    #: ``JobConfig.seed`` (the synthetic chain's records are fixed).
    seeded_input: bool
    graph: Callable[["Workload", int], Callable]
    #: The part of a sink value that exactly-once is judged on.
    identity: Callable[[Any], Any] = lambda value: value

    @property
    def source_records(self) -> int:
        return self.events_per_partition * self.parallelism

    def config(self, seed: int, reference: bool = False) -> JobConfig:
        mode = self.reference_mode if reference else self.mode
        config = experiment_config(mode, None, self.checkpoint_interval)
        config.seed = seed
        return config

    def graph_fn(self, seed: int) -> Callable:
        return self.graph(self, seed)


def _nexmark(query: str) -> Callable[[Workload, int], Callable]:
    def build(workload: Workload, seed: int) -> Callable:
        return nexmark_graph_fn(
            query,
            workload.parallelism,
            workload.events_per_partition,
            workload.rate,
            seed=seed,
        )

    return build


def _chain(workload: Workload, seed: int) -> Callable:
    # The chain's records are (partition, offset) pairs: the seed reaches
    # only JobConfig.seed.
    def build(log, external):
        return synthetic_chain(
            log,
            depth=5,
            parallelism=workload.parallelism,
            rate_per_partition=workload.rate,
            total_per_partition=workload.events_per_partition,
            state_bytes_per_task=100 * 1024,
            out_topic="out",
        )

    return build


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="q5-saturated",
            parallelism=2,
            events_per_partition=10_000,
            rate=100_000.0,
            mode=CLONOS,
            reference_mode=ROLLBACK,
            checkpoint_interval=1.0,
            kills=(),
            exactly_once=True,
            seeded_input=True,
            graph=_nexmark("Q5"),
            # The hot-items max breaks a tie between auctions by arrival
            # order, which differs between fault tolerance modes; the
            # winning count per window does not.
            identity=lambda value: (value["window"], value["bids"]),
        ),
        Workload(
            name="chain-3-failures",
            parallelism=5,
            events_per_partition=2_000,
            rate=2_000.0,
            mode=CLONOS,
            reference_mode=CLONOS,
            checkpoint_interval=0.5,
            kills=((0.6, "stage1[0]"), (0.8, "stage2[0]"), (1.0, "stage3[0]")),
            exactly_once=True,
            seeded_input=False,
            graph=_chain,
            # A stage's per-key count depends on how inputs interleave,
            # which recovery legitimately changes; the record's origin
            # (partition, offset) is its identity.
            identity=lambda value: value[:2],
        ),
        Workload(
            name="q3-rollback",
            parallelism=2,
            events_per_partition=18_000,
            rate=6_000.0,
            mode=ROLLBACK,
            reference_mode=ROLLBACK,
            checkpoint_interval=2.0,
            kills=((2.5, "join[0]"),),
            exactly_once=False,
            seeded_input=True,
            graph=_nexmark("Q3"),
        ),
    )
}
