"""A decided wait frees itself.

When an ``AnyOf`` fires it withdraws its losing signal waits from their
signals, detaches from its losing ``Timeout``, and drops its child list.
Nothing it leaves behind becomes a kernel event or keeps a reference cycle
alive, so refcounting reclaims the wait even while cyclic GC is paused.
"""

import gc
from repro.sim import AnyOf, Environment, Signal, Timeout


def _popped(env):
    """Run ``env`` dry and return the number of events the kernel popped."""
    steps = 0
    while env._queue:
        env.step()
        steps += 1
    return steps


def test_timeout_win_withdraws_signal_waits():
    env = Environment()
    signal = Signal(env)
    seen = []

    def proc():
        winner = yield env.any_of([env.timeout(1, "tick"), signal.wait()])
        seen.append((env.now, winner.value))

    env.process(proc())
    env.run()
    assert seen == [(1, "tick")]
    assert signal._waiters == {}
    # A later pulse has nobody to wake: it schedules zero events.
    signal.pulse()
    assert env._queue == []


def test_signal_win_pops_losing_timeout_but_resumes_nobody():
    env = Environment()
    signal = Signal(env)
    timeout = env.timeout(5, "late")
    resumed = []

    def proc():
        winner = yield env.any_of([timeout, signal.wait()])
        resumed.append((env.now, winner is not timeout))

    env.process(proc())
    env.run(until=1)
    signal.pulse()
    env.run(until=2)
    assert resumed == [(1, True)]
    # The loser is still queued at its own time, with nothing left to call.
    assert timeout.callbacks == []
    assert [entry[2] for entry in env._queue] == [timeout]
    assert _popped(env) == 1
    assert timeout.processed
    assert resumed == [(1, True)]


def test_any_of_built_with_already_fired_child():
    env = Environment()
    signal = Signal(env)
    done = env.event()
    done.succeed("early")
    env.run()
    timeout = env.timeout(3)
    wait = signal.wait()
    cond = env.any_of([done, wait, timeout])
    assert cond.triggered
    assert cond.value is done
    # Later children are never registered on, and the signal wait is gone.
    assert signal._waiters == {}
    assert wait.callbacks == []
    assert timeout.callbacks == []
    env.run()
    signal.pulse()
    assert env._queue == []


def test_nested_any_of_releases_inner_waits_when_it_fires():
    env = Environment()
    signal = Signal(env)
    seen = []

    def proc():
        inner = env.any_of([signal.wait(), env.timeout(5, "inner")])
        winner = yield env.any_of([inner, env.timeout(1, "outer")])
        seen.append((env.now, winner.value))

    env.process(proc())
    env.run(until=2)
    assert seen == [(1, "outer")]
    # The inner condition is still undecided, so its signal wait stands.
    assert len(signal._waiters) == 1
    env.run()
    assert signal._waiters == {}
    assert seen == [(1, "outer")]


def test_nested_any_of_signal_wins_inside():
    env = Environment()
    signal = Signal(env)
    seen = []

    def proc():
        inner = env.any_of([signal.wait(), env.timeout(5, "inner")])
        winner = yield env.any_of([inner, env.timeout(9, "outer")])
        seen.append((env.now, winner is inner))

    env.process(proc())
    env.run(until=2)
    signal.pulse()
    env.run()
    assert seen == [(2, True)]
    assert signal._waiters == {}


def test_any_of_value_is_the_winning_event():
    env = Environment()
    signal = Signal(env)
    got = []

    def proc():
        wait = signal.wait()
        winner = yield env.any_of([env.timeout(10), wait])
        got.append(winner is wait)

    env.process(proc())
    env.run(until=1)
    signal.pulse()
    env.run(until=2)
    assert got == [True]


def test_pulse_keeps_fifo_order_of_live_waiters():
    env = Environment()
    signal = Signal(env)
    order = []

    def direct(tag):
        yield signal.wait()
        order.append(tag)

    def guarded(tag):
        yield env.any_of([signal.wait(), env.timeout(0.5)])
        order.append(tag)

    env.process(direct("a"))
    env.process(guarded("gone"))  # times out and withdraws its wait
    env.process(direct("b"))
    env.process(direct("c"))
    env.run(until=1)
    assert order == ["gone"]
    assert len(signal._waiters) == 3
    signal.pulse()
    assert len(env._queue) == 3
    env.run(until=2)
    assert order == ["gone", "a", "b", "c"]


def _live(cls):
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_fired_any_of_is_freed_without_cyclic_gc():
    # AnyOf has no __weakref__ slot, so liveness is read off the GC's own
    # object list, which holds every tracked object whether or not the
    # collector runs.
    env = Environment()
    signal = Signal(env)

    def proc():
        for _ in range(50):
            yield env.any_of([env.timeout(1), signal.wait()])

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live(AnyOf), _live(Timeout)
        env.process(proc())
        env.run(until=100)
        assert (_live(AnyOf), _live(Timeout)) == before
        assert signal._waiters == {}
    finally:
        if was_enabled:
            gc.enable()
