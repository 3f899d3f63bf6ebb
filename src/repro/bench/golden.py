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


#: Recorded on the pre-optimisation tree.  The Clonos ``schedule_hash`` and
#: ``kernel_steps`` were re-pinned once, when a decided ``AnyOf`` began
#: withdrawing its losing signal waits (dead no-op pops vanish; DESIGN.md
#: §7); every other digest is the original.
EXPECTED: Dict[str, GoldenDigests] = {
    "clonos": GoldenDigests(
        schedule_hash="acd0b0438b7754d8",
        kernel_steps=13220,
        sink_sha256=(
            "27c90a993c1382918db0c6cab0c6c36af89240c240794a7b62e65ea4e9210a8e"
        ),
        trace_sha256=(
            "f41d57ee3e154a4dbba735a7fc621dc9407efc7cd4fb73201d9ea67c295fafb8"
        ),
    ),
    "flink": GoldenDigests(
        schedule_hash="5bcf8c2cf022b74f",
        kernel_steps=12195,
        sink_sha256=(
            "c991604fa261aa1d1b0d9135cd1ed958bf193d84a9f79ee5bfb4e8440f0c3eef"
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


def _golden_config(mode: FaultToleranceMode) -> JobConfig:
    # Tight detection/deploy constants keep the kill-and-recover cycle well
    # inside the short run.
    return experiment_config(
        mode,
        None,
        checkpoint_interval=0.5,
        connection_failure_detection=0.05,
        standby_activation_time=0.05,
        task_deploy_time=0.5,
        heartbeat_interval=0.2,
        heartbeat_timeout=0.3,
    )


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


def run_golden(label: str) -> GoldenDigests:
    """Run the golden workload for one mode and return its digests."""
    config = _golden_config(_MODES[label])
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
