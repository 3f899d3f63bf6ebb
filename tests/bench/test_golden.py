"""The determinism gate behind the perf overhaul.

Byte-for-byte regression pins: the golden workload's kernel schedule hash,
sink output, and trace export must match the pinned digests.  Any
kernel/record-path change that reorders, adds, or drops events fails here —
being faster is only legal if the simulation is unchanged, and a deliberate
schedule change re-pins with a semantics review (DESIGN.md §7).
"""

import pytest

from repro.bench.golden import EXPECTED, check_goldens, run_golden
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
