"""Golden-digest determinism gate.

The perf work's hard constraint: optimisations may change how *fast* the
simulator runs, never *what* it computes.  This module pins one seeded
fig6-style failure workload — small enough to run in about a second, rich
enough to exercise sources, stateful operators, checkpoints, a kill, causal
deltas, and recovery — and records four digests per fault-tolerance mode:

* ``schedule_hash`` — the sanitizer's rolling hash over every popped kernel
  event ``(when, priority, type, name)``: the full event schedule.
* ``kernel_steps`` — total events popped across all environments.
* ``sink_sha256`` — SHA-256 over the reprs of the job's sink output values.
* ``trace_sha256`` — SHA-256 of the deterministic JSONL trace export.

``check_goldens`` re-runs the workload and compares byte-for-byte.  If an
optimisation changes any digest it reordered, added, or dropped events —
that is a semantics change and CI fails.  A deliberate schedule change
re-pins the affected digests together with a written semantics review in
DESIGN.md §7; every re-pin is listed there.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.sanitizer import combined_digest, traced_environments
from repro.config import FaultToleranceMode, JobConfig
from repro.external.http import ExternalService
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraph
from repro.harness.experiment import run_experiment
from repro.harness.figures import experiment_config
from repro.trace.export import write_jsonl
from repro.workloads.synthetic import synthetic_chain


@dataclass(frozen=True)
class GoldenDigests:
    """The four byte-for-byte pins of one golden run."""

    schedule_hash: str
    kernel_steps: int
    sink_sha256: str
    trace_sha256: str


#: Re-pinned when sources began batching their fetches
#: (``CostModel.source_fetch_wait``; DESIGN.md §7 has the semantics review).
#: With ``source_fetch_wait=0`` the run reproduces the previous pins
#: byte-for-byte, and the Flink trace export did not move at all.
EXPECTED: Dict[str, GoldenDigests] = {
    "clonos": GoldenDigests(
        schedule_hash="84721acac4961f6d",
        kernel_steps=4998,
        sink_sha256=(
            "d3b20f5ab6b2a09119e8a092bb9e550ef04e3590584c5b66b25cc49ec7ad9bfe"
        ),
        trace_sha256=(
            "fe589066eae07189ad950417d7a27566a2d9634399424dcf1332c16e2cadbb10"
        ),
    ),
    "flink": GoldenDigests(
        schedule_hash="03216a079adbce46",
        kernel_steps=4513,
        sink_sha256=(
            "672eaf8c3627a687f6349f3650f5c97aeff6277bc7fe2556daa4acaac4711eae"
        ),
        trace_sha256=(
            "3caa4a51dcbaeec1ffcf8280abc030cf8fe9748d3d650d20b64881deaeb8cd39"
        ),
    ),
}

_MODES: Dict[str, FaultToleranceMode] = {
    "clonos": FaultToleranceMode.CLONOS,
    "flink": FaultToleranceMode.GLOBAL_ROLLBACK,
}


def _golden_config(mode: FaultToleranceMode, **cost_overrides) -> JobConfig:
    # Tight detection/deploy constants keep the kill-and-recover cycle well
    # inside the short run.
    costs = dict(
        connection_failure_detection=0.05,
        standby_activation_time=0.05,
        task_deploy_time=0.5,
        heartbeat_interval=0.2,
        heartbeat_timeout=0.3,
    )
    costs.update(cost_overrides)
    return experiment_config(mode, None, checkpoint_interval=0.5, **costs)


def _golden_graph(log: DurableLog, external: Optional[ExternalService]) -> JobGraph:
    return synthetic_chain(
        log,
        depth=3,
        parallelism=2,
        rate_per_partition=2000.0,
        total_per_partition=1500,
        state_bytes_per_task=8192,
        num_keys=16,
        nondeterministic=True,
        out_topic="out",
    )


def run_golden(label: str, **cost_overrides) -> GoldenDigests:
    """Run the golden workload for one mode and return its digests.

    ``cost_overrides`` replace :class:`~repro.config.CostModel` fields; the
    pinned :data:`EXPECTED` digests hold for the defaults only."""
    config = _golden_config(_MODES[label], **cost_overrides)
    with traced_environments(keep_trace=False) as tracers:
        result = run_experiment(
            _golden_graph, config, kills=[(0.4, "stage1[0]")], limit=3600.0
        )
    sink = hashlib.sha256(
        "\n".join(repr(v) for v in result.output_values()).encode()
    ).hexdigest()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_jsonl(Path(tmp) / "golden.jsonl", result.jm.trace)
        trace = hashlib.sha256(path.read_bytes()).hexdigest()
    return GoldenDigests(
        schedule_hash=combined_digest(tracers),
        kernel_steps=sum(t.steps for t in tracers),
        sink_sha256=sink,
        trace_sha256=trace,
    )


def check_goldens() -> List[str]:
    """Run every golden mode; return human-readable mismatch descriptions
    (empty list = all digests byte-identical)."""
    failures: List[str] = []
    for label, expected in EXPECTED.items():
        actual = run_golden(label)
        if actual == expected:
            continue
        for field_name in (
            "schedule_hash",
            "kernel_steps",
            "sink_sha256",
            "trace_sha256",
        ):
            want = getattr(expected, field_name)
            got = getattr(actual, field_name)
            if want != got:
                failures.append(
                    f"{label}: {field_name} drifted: expected {want}, got {got}"
                )
    return failures
