"""Source operators: replayable readers over the durable log.

A source's nondeterminism (Section 4.1): ingestion timestamps, watermark
emission points, and barrier-injection offsets all depend on wall-clock
time.  The *offsets* consumed are deterministic state (checkpointed), which
is what makes lineage-based replay bottom out at the sources.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ExternalSystemError, StateError
from repro.external.kafka import DurableLog
from repro.graph.elements import StreamRecord
from repro.operators.base import Context, Operator
from repro.timing.watermarks import SourceWatermarkGenerator

#: A wake-up scheduled for a fetch deadline lands on it up to float rounding
#: of ``now + (deadline - now)``; the slack keeps that wake from lingering a
#: second time.  Far below any arrival spacing, so it never returns early.
_CLOCK_SLACK = 1e-9


class SourceOperator(Operator):
    """Base for sources; the runtime drives :meth:`poll` in its source loop."""

    def poll(self, ctx: Context, max_records: int, max_wait: float = 0.0):
        """Return ``(records, next_arrival_time_or_None)``.

        ``records`` may be empty; ``next_arrival_time`` tells the runtime
        when to poll again (None = exhausted forever).  ``max_wait`` is the
        fetch linger: a source may hold back a partial batch until its
        oldest record has waited that long.
        """
        raise NotImplementedError

    def watermark_generator(self) -> Optional[SourceWatermarkGenerator]:
        return None


class KafkaSource(SourceOperator):
    """Reads one topic partition per subtask (partition = subtask index).

    ``timestamp_fn(value, arrival_time) -> event time`` defaults to the
    arrival time (which doubles as ``created_at`` for latency metrics).
    ``ingestion_time=True`` stamps records with the *processing* clock via
    the causal Timestamp service instead — the nondeterministic
    ingestion-time mode of Section 4.1.
    """

    def __init__(
        self,
        log: DurableLog,
        topic: str,
        timestamp_fn: Optional[Callable[[Any, float], float]] = None,
        key_fn: Optional[Callable[[Any], Any]] = None,
        ingestion_time: bool = False,
        lateness: float = 0.5,
        watermark_interval: float = 0.2,
    ):
        self.log = log
        self.topic = topic
        self.timestamp_fn = timestamp_fn
        self.key_fn = key_fn
        self.ingestion_time = ingestion_time
        self.offset = 0
        self._partition = None
        self._wm_gen = SourceWatermarkGenerator(lateness, watermark_interval)
        #: Polls refused by a broker fault window (observability for tests).
        self.stalled_polls = 0

    deterministic = False  # ingestion times / watermark points are wall-clock

    def open(self, ctx: Context) -> None:
        self._partition = self.log.partition(self.topic, ctx.subtask_index)

    def poll(self, ctx: Context, max_records: int, max_wait: float = 0.0):
        if self._partition is None:
            raise StateError("source polled before open()")
        # Availability gating is physical (what has arrived at the broker),
        # not computational: it must NOT go through the causal timestamp
        # service, or replay would consume determinants per poll.
        now = ctx.now
        self.log.fetches += 1
        try:
            self.log.check_available(now, f"fetch {self.topic}")
        except ExternalSystemError:
            # Broker outage/brownout: stall without advancing the offset —
            # consumption resumes where it left off, so nothing is lost or
            # duplicated, exactly like a real consumer's fetch retry loop.
            self.stalled_polls += 1
            return [], self.log.retry_at(now)
        # Fetch batching: nothing is returned before a full batch has
        # arrived or the oldest pending record has lingered ``max_wait``.
        # Stateless (offset + clock), so replay-safe; with ``max_wait=0``
        # the deadline is the head record's arrival and every arrived record
        # is returned, as an unbatched consumer would.
        deadline = self._partition.fetch_deadline(self.offset, max_records, max_wait)
        if deadline is None:
            return [], None
        if now + _CLOCK_SLACK < deadline:
            return [], deadline
        entries = self._partition.read(self.offset, max_records, now=now)
        records = []
        if entries:
            ingestion_time = self.ingestion_time
            timestamp_fn = self.timestamp_fn
            key_fn = self.key_fn
            observe = self._wm_gen.observe
            append = records.append
            for offset, arrival, value in entries:
                if ingestion_time:
                    # Ingestion time IS computational: per-record causal read.
                    event_time = ctx.services.timestamp()
                elif timestamp_fn is not None:
                    event_time = timestamp_fn(value, arrival)
                else:
                    event_time = arrival
                key = key_fn(value) if key_fn is not None else None
                observe(event_time)
                append(
                    StreamRecord(
                        value, timestamp=event_time, key=key, created_at=arrival
                    )
                )
            self.offset = offset + 1
        next_arrival = self._partition.next_arrival_after(self.offset)
        return records, next_arrival

    def watermark_generator(self) -> SourceWatermarkGenerator:
        return self._wm_gen

    def snapshot(self) -> dict:
        return {"offset": self.offset, "wm": self._wm_gen.snapshot()}

    def restore(self, state: dict) -> None:
        self.offset = state["offset"]
        self._wm_gen.restore(state["wm"])


class IteratorSource(SourceOperator):
    """A finite in-memory source for unit tests: ``items`` with optional
    per-item event timestamps, all available immediately."""

    def __init__(self, items, key_fn: Optional[Callable[[Any], Any]] = None):
        self.items = list(items)
        self.key_fn = key_fn
        self.offset = 0

    def poll(self, ctx: Context, max_records: int, max_wait: float = 0.0):
        records = []
        while self.offset < len(self.items) and len(records) < max_records:
            item = self.items[self.offset]
            if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], float):
                value, event_time = item
            else:
                value, event_time = item, float(self.offset)
            key = self.key_fn(value) if self.key_fn is not None else None
            records.append(
                StreamRecord(value, timestamp=event_time, key=key, created_at=0.0)
            )
            self.offset += 1
        return records, None

    def snapshot(self) -> dict:
        return {"offset": self.offset}

    def restore(self, state: dict) -> None:
        self.offset = state["offset"]
