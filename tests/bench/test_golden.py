"""The determinism gate behind the perf overhaul.

Byte-for-byte regression pins: the golden workload's kernel schedule hash,
sink output, and trace export must match the pinned digests.  Any
kernel/record-path change that reorders, adds, or drops events fails here —
being faster is only legal if the simulation is unchanged, and a deliberate
schedule change re-pins with a semantics review (DESIGN.md §7).
"""

import pytest

from repro.bench.golden import EXPECTED, GoldenDigests, check_goldens, run_golden
from repro.trace import profiling


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_golden_digests_are_byte_identical(label):
    assert run_golden(label) == EXPECTED[label]


def test_check_goldens_reports_clean():
    assert check_goldens() == []


def test_profiler_is_passive():
    # The sim-aware profiler hooks the kernel's dispatch loop; attaching it
    # must not perturb the schedule, the outputs, or the trace: wall-clock
    # readings stay outside the sim.  Same digests with and without.
    with profiling() as profilers:
        digests = run_golden("clonos")
    assert profilers, "golden run should have built profiled environments"
    assert digests == EXPECTED["clonos"]
    # The profiler counts only events that dispatched callbacks (a process
    # nobody joins, or a losing Timeout a decided AnyOf detached from, is
    # hashed by the tracer but never timed), so its step count trails the
    # schedule's slightly but can never exceed it.
    merged_steps = sum(p.steps for p in profilers)
    assert 0 < merged_steps <= EXPECTED["clonos"].kernel_steps


#: The pins from before sources batched their fetches.
UNBATCHED = {
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


@pytest.mark.parametrize("label", sorted(UNBATCHED))
def test_zero_fetch_wait_reproduces_the_unbatched_schedule(label):
    # The re-pin is the fetch linger and nothing else: without it, every
    # digest is byte-identical to the pre-batching tree.
    assert run_golden(label, source_fetch_wait=0.0) == UNBATCHED[label]
