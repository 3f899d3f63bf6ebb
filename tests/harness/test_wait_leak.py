"""End-to-end leak regression: idle waits must not pile up in a paced run.

A paced source that finds nothing to read waits on ``AnyOf(timeout, control
signal, timer signal)`` and the timeout nearly always wins; a data loop
waits on its three signals the same way.  Should a decided wait leave its
losing signal waits registered, a timer signal that never pulses keeps each
one (with its ``AnyOf``, ``Timeout`` and callbacks) alive to the end of the
run: O(records) objects while cyclic GC is paused.  This runs a scaled-down
paced Nexmark Q3 under global rollback with GC disabled and checks for
stale waits and for the object count.
"""

import gc

from repro.config import FaultToleranceMode
from repro.harness.experiment import run_experiment
from repro.harness.figures import experiment_config, nexmark_graph_fn
from repro.sim import AnyOf, Process, Signal, Timeout

EVENTS_PER_PARTITION = 1500


def _resumer(event):
    """What a registered signal wait would resume: a process or, when that
    process was killed mid-wait, its orphaned condition; None if the wait
    only reaches a condition that already fired (a stale wait)."""
    for callback in event.callbacks:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            return owner
        if isinstance(owner, AnyOf) and not owner.triggered:
            return _resumer(owner) or owner
    return None


def _live(cls):
    return [obj for obj in gc.get_objects() if type(obj) is cls]


def test_paced_q3_leaves_no_stale_waits():
    build = nexmark_graph_fn("Q3", 2, EVENTS_PER_PARTITION, 1500.0, seed=1)
    config = experiment_config(FaultToleranceMode.GLOBAL_ROLLBACK, None, 0.5)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = {id(obj) for cls in (AnyOf, Timeout, Signal) for obj in _live(cls)}
        result = run_experiment(build, config, kills=[(0.6, "join[0]")])
        any_ofs = len([o for o in _live(AnyOf) if id(o) not in before])
        timeouts = len([o for o in _live(Timeout) if id(o) not in before])
        waiters = [
            [_resumer(ev) for ev in signal._waiters]
            for signal in _live(Signal)
            if id(signal) not in before
        ]
    finally:
        if was_enabled:
            gc.enable()
    tasks = len(result.jm.vertices)
    records = 2 * EVENTS_PER_PARTITION
    assert len(result.output_values()) > 0
    # No stale waits, and at most one per waiting process on each signal.
    for resumers in waiters:
        assert None not in resumers
        assert len({id(r) for r in resumers}) == len(resumers)
    # O(tasks), not O(records).
    assert any_ofs <= 2 * tasks < records
    assert timeouts <= 4 * tasks < records
