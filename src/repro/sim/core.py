"""Discrete-event simulation kernel.

A minimal, deterministic, generator-coroutine engine in the style of SimPy.
Processes are Python generators that ``yield`` :class:`Event` objects; the
:class:`Environment` resumes them when those events trigger.  All scheduling
is totally ordered by ``(time, priority, sequence)``, so a simulation run is
exactly reproducible for a given program.

The rest of the library models a distributed stream processor on top of this
kernel: tasks, network channels, checkpoints, and failures are all processes
and events in one :class:`Environment`.

Hot-path notes (see DESIGN.md, "Kernel fast paths"):

* Heap entries are 3-tuples ``(time, key, event)`` where ``key`` packs
  ``(priority, sequence)`` into one integer (``priority << 64 | seq``).
  Comparing one int is cheaper than comparing two, and the entry is one
  element smaller.  Times stay floats: the schedule hash and trace exports
  round and print them, so changing the time representation would change
  observable bytes.
* Detaching a process from the event it was waiting on (interrupt / kill)
  replaces its callback with a no-op tombstone at a remembered index — O(1)
  instead of ``list.remove``.  Dispatching a tombstone has no simulation
  effect, so the schedule is unchanged; code that used "has callbacks" as a
  liveness test must use :func:`has_live_callbacks` instead.
* ``run()`` dispatches events in a loop that skips the tracer/profiler
  branches entirely when neither is installed.  The per-event *schedule* is
  identical either way; only the Python overhead differs.
* A decided :class:`AnyOf` frees itself: it detaches from its losing
  ``Timeout``, withdraws its losing signal waits from their signal (they
  never become kernel events), and drops its child list, so no reference
  cycle outlives the wait and refcounting reclaims it with cyclic GC paused.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent (control-plane) events; fires before NORMAL
#: events scheduled at the same instant.
URGENT = 0

#: Bit position of the priority inside a packed heap key.  Sequence numbers
#: are monotonically increasing ints that stay far below 2**64 in any
#: feasible run, so ``(priority << _PRIO_SHIFT) | seq`` orders exactly like
#: the tuple ``(priority, seq)``.
_PRIO_SHIFT = 64


def _tombstone(_event: "Event") -> None:
    """No-op left in a callback list by an O(1) detach (see Process)."""


def has_live_callbacks(event: "Event") -> bool:
    """True if ``event`` still has a waiter that would react to it.

    Replaces truthiness checks on ``event.callbacks`` as a liveness test:
    a detached process leaves an inert tombstone behind instead of shrinking
    the list.
    """
    cbs = event.callbacks
    if not cbs:
        return False
    return any(cb is not _tombstone for cb in cbs)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the object passed to ``interrupt()``;
    tasks use it to distinguish failure injection from cancellation.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening that processes can wait for.

    An event starts *pending*, becomes *triggered* once scheduled with a value
    (or an exception), and is *processed* after its callbacks ran.  Multiple
    processes may wait on the same event.
    """

    __slots__ = (
        "env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_owner"
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        #: The waiter queue (a :class:`repro.sim.queues.Signal`) this pending
        #: event is registered with, or None.  A condition that no longer
        #: needs the event calls ``_owner.withdraw(event)``.
        self._owner: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, (priority << _PRIO_SHIFT) | seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception; waiters will see it raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, (priority << _PRIO_SHIFT) | seq, self))
        return self


def _make_resume_event(
    env: "Environment", resume: Callable[["Event"], None], ok: bool, value: Any
) -> Event:
    """A pre-triggered plain Event carrying ``resume`` as its only callback.

    Used for the bootstrap / interrupt-wakeup / passthrough events a Process
    schedules on itself.  Built with ``__new__`` + direct slot stores: these
    are the most-allocated objects in a run, and skipping ``__init__`` (and
    its pending-state defaults that are immediately overwritten) measurably
    cuts per-resume cost.  They remain real :class:`Event` instances, so the
    schedule hash sees the same ``("Event", "")`` entry as before.
    """
    ev = Event.__new__(Event)
    ev.env = env
    ev.callbacks = [resume]
    ev._value = value
    ev._ok = ok
    ev._triggered = True
    ev._processed = False
    ev._owner = None
    return ev


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._owner = None
        env._seq = seq = env._seq + 1
        heappush(
            env._queue,
            (env._now + delay, (NORMAL << _PRIO_SHIFT) | seq, self),
        )


class Process(Event):
    """A running generator coroutine.

    As an :class:`Event`, a process triggers when the generator returns
    (value = the ``return`` value) or raises (the event fails).
    """

    __slots__ = ("_generator", "_target", "name", "_interrupts", "_target_index")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        self._generator = generator
        self._target: Optional[Event] = None
        self._target_index = 0
        self.name = name or getattr(generator, "__name__", "process")
        self._interrupts: List[Interrupt] = []
        # Bootstrap: resume the generator at the current instant.
        env._schedule(_make_resume_event(env, self._resume, True, None), URGENT)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is an error; interrupting twice
        before the process runs queues both interrupts.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        self._interrupts.append(Interrupt(cause))
        env = self.env
        env._schedule(_make_resume_event(env, self._resume, True, None), URGENT)

    def _detach(self) -> None:
        """O(1) removal of our callback from the event we were waiting on.

        Overwrites the remembered slot with a tombstone instead of scanning
        with ``list.remove``.  The tombstone dispatches as a no-op, so the
        event's schedule entry (already fixed at trigger time) is unchanged.
        """
        target = self._target
        if target is None:
            return
        cbs = target.callbacks
        if cbs is not None:
            i = self._target_index
            if i < len(cbs) and cbs[i] is self._resume:
                cbs[i] = _tombstone
            else:  # pragma: no cover - defensive: index moved, fall back
                try:
                    cbs.remove(self._resume)
                except ValueError:
                    pass
        self._target = None

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return  # process already finished (e.g. interrupted earlier)
        if self._target is not None:
            self._detach()
        env = self.env
        env._active_process = self
        try:
            if self._interrupts:
                interrupt = self._interrupts.pop(0)
                next_event = self._generator.throw(interrupt)
            elif event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._finish(True, stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: treat as clean exit.
            env._active_process = None
            self._finish(True, None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into event
            env._active_process = None
            self._finish(False, exc)
            return
        env._active_process = None
        if not isinstance(next_event, Event):
            self._generator.close()
            self._finish(
                False,
                SimulationError(
                    f"process {self.name} yielded non-event {next_event!r}"
                ),
            )
            return
        cbs = next_event.callbacks
        if cbs is None:
            # Already processed: resume immediately at the current instant.
            env._schedule(
                _make_resume_event(env, self._resume, next_event._ok, next_event._value),
                URGENT,
            )
            self._target = None
        else:
            self._target = next_event
            self._target_index = len(cbs)
            cbs.append(self._resume)

    def _finish(self, ok: bool, value: Any) -> None:
        self._triggered = True
        self._ok = ok
        self._value = value
        self.env._schedule(self, URGENT)

    def kill(self) -> None:
        """Terminate the process without running any more of its code.

        Used by failure injection: the process simply never resumes again,
        modelling a crashed thread.  Waiters of the process event are *not*
        notified (a crash is silent); use :meth:`interrupt` for a noisy stop.
        """
        if self._triggered:
            return
        self._detach()
        self._generator.close()
        self._triggered = True  # prevents any future _resume from acting


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        # Inlined Event.__init__: conditions are built once per wait in the
        # hottest polling loops, so the extra super() frame is measurable.
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._owner = None
        self._events = list(events)
        self._register()

    def _register(self) -> None:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Triggers once every child event has triggered successfully."""

    __slots__ = ("_done",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self._done = 0
        super().__init__(env, events)

    def _register(self) -> None:
        on_child = self._on_child
        for ev in self._events:
            if ev.callbacks is None:
                # Already processed (fired in the past): count immediately.
                # NOTE: a *scheduled* Timeout has triggered=True from birth;
                # only `callbacks is None` means it actually fired.
                on_child(ev)
            else:
                ev.callbacks.append(on_child)
        if not self._triggered and self._done == len(self._events):
            self.succeed([ev.value for ev in self._events])

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed([ev.value for ev in self._events])


class AnyOf(Condition):
    """Triggers as soon as any child event triggers; its value is that child.

    Once decided it lets go of the losers (see :meth:`_decide`): a decided
    wait holds no reference to its children and leaves nothing registered
    on a signal, so it is freed by refcount the moment its waiter resumes.
    """

    __slots__ = ()

    def _register(self) -> None:
        events = self._events
        for ev in events:
            if ev.callbacks is None:
                # A child that fired before construction decides the wait
                # now; no child is ever registered on.
                self._decide(ev, 0)
                return
        on_child = self._on_child
        for ev in events:
            ev.callbacks.append(on_child)

    def _on_child(self, event: Event) -> None:
        # Once decided, only a loser that could not be detached calls back.
        if not self._triggered:
            self._decide(event, 1)

    def _decide(self, winner: Event, ours: int) -> None:
        """Fire with ``winner``, then let go of every losing child.

        ``ours`` is how many callbacks this condition put on each child (0
        when built already decided).  A loser is only touched when nobody
        else waits on it, and only where its later dispatch provably does
        nothing else: a queued successful event (typically the losing
        ``Timeout``) still pops at its time but resumes nobody, and a
        pending signal wait is withdrawn from its signal, so it never
        becomes a kernel event.  Other pending children (processes, store
        gets, nested conditions) keep the no-op callback: they may still
        fail, and the kernel raises a failure that nobody waits for.
        """
        if winner._ok:
            self.succeed(winner)
        else:
            self.fail(winner._value)
        for ev in self._events:
            cbs = ev.callbacks
            if ev is winner or cbs is None or len(cbs) != ours:
                continue
            if ev._triggered:
                if ev._ok:
                    cbs.clear()
            elif ev._owner is not None:
                ev._owner.withdraw(ev)
        self._events = ()


class Environment:
    """The simulation world: clock plus event queue.

    All model components share one environment.  Time is a float in seconds.
    """

    #: Optional factory installed by :mod:`repro.analysis.sanitizer`: every
    #: new environment attaches the tracer it returns, and :meth:`step` feeds
    #: it each popped event — the schedule hash of the determinism sanitizer.
    _tracer_factory: Optional[Callable[[], Any]] = None

    #: Optional factory installed by :func:`repro.trace.profiler.profiling`:
    #: every new environment attaches the profiler it returns, and
    #: :meth:`step` times each callback it dispatches.  The profiler observes
    #: wall-clock time only — it never feeds anything back into the sim.
    _profiler_factory: Optional[Callable[[], Any]] = None

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        factory = Environment._tracer_factory
        self.tracer = factory() if factory is not None else None
        profiler_factory = Environment._profiler_factory
        self.profiler = profiler_factory() if profiler_factory is not None else None

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def events_popped(self) -> int:
        """Kernel events dispatched so far: every scheduled event bumps
        ``_seq`` and sits in the queue until it is popped."""
        return self._seq - len(self._queue)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        heappush(
            self._queue, (self._now + delay, (priority << _PRIO_SHIFT) | seq, event)
        )

    def schedule_callback(
        self, delay: float, callback: Callable[[], None], priority: int = NORMAL
    ) -> Event:
        """Run ``callback()`` after ``delay`` simulated seconds."""
        ev = Event(self)
        ev.callbacks.append(lambda _ev: callback())
        ev._triggered = True
        self._schedule(ev, priority, delay)
        return ev

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("step() on empty schedule")
        when, key, event = heappop(self._queue)
        now = self._now
        if when > now:
            self._now = when
        elif when < now - 1e-12:
            raise SimulationError(
                f"time went backwards: popped event at t={when!r} "
                f"with clock at t={now!r}"
            )
        if self.tracer is not None:
            self.tracer.on_step(when, key >> _PRIO_SHIFT, event)
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        profiler = self.profiler
        if callbacks:
            if profiler is None:
                for callback in callbacks:
                    callback(event)
            else:
                profiler.on_step(when, key >> _PRIO_SHIFT, event)
                for callback in callbacks:
                    started = profiler.begin()
                    callback(event)
                    profiler.record(event, callback, started)
        elif not event._ok and not isinstance(event, Process):
            # A failed event nobody waited for would silently swallow the
            # exception; surface it instead.
            raise event._value

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue empties or the clock reaches ``until``."""
        if until is not None and until < self._now:
            raise SimulationError(f"run until {until} is in the past (now={self._now})")
        queue = self._queue
        if self.tracer is None and self.profiler is None:
            # Fast dispatch loop: step() inlined, instrumentation branches
            # gone.  The event schedule is byte-identical to the slow path.
            pop = heappop
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                when, _key, event = pop(queue)
                now = self._now
                if when > now:
                    self._now = when
                elif when < now - 1e-12:
                    raise SimulationError(
                        f"time went backwards: popped event at t={when!r} "
                        f"with clock at t={now!r}"
                    )
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                elif not event._ok and not isinstance(event, Process):
                    raise event._value
        else:
            step = self.step
            while queue:
                # Single peek per iteration, reused by the inline dispatch.
                if until is not None and queue[0][0] > until:
                    break
                step()
        if until is not None:
            self._now = until
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")
