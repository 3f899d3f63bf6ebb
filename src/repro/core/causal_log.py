"""The causal log (Section 4.3).

Each task keeps a *bundle* of epoch-segmented determinant logs:

* ``main`` — the main processing thread's determinants, and
* ``queue:<c>`` — one buffer-size log per output channel (the network
  threads' nondeterminism).

Whenever a buffer is dispatched on a channel, a **delta** — all bundle
entries the channel has not yet carried, plus (for determinant sharing
depths > 1) the bundles of upstream tasks within DSD-1 hops — piggybacks on
the buffer.  The receiver merges deltas into its *causal store* by epoch and
index, which makes merging idempotent: replayed/duplicated deltas are
harmless, the store simply keeps the longest prefix per epoch.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.determinants import Determinant
from repro.errors import DeterminantLogError, IntegrityError
from repro.integrity.fingerprint import combine, fingerprint

MAIN = "main"

#: Rolling-CRC seed for an empty epoch (any fixed nonzero constant works).
_CRC_SEED = 0x1EDC6F41

#: Shared empty-entries sentinel (never mutated; avoids allocating an empty
#: list on every miss in the delta assembly hot loop).
_NO_ENTRIES: List["Determinant"] = []


def _det_fp(det: Determinant) -> int:
    """Content fingerprint of a determinant, memoised on the object.

    Safe because determinants are immutable once appended and deltas forward
    them *by reference*: origin and every replica fold the identical object,
    so one computation serves them all.  Out-of-band tampering (the chaos
    engine) clears the memo on the object it mutates, and :meth:`EpochLog.
    verify` always recomputes from scratch, so detection is unaffected.
    """
    fp = getattr(det, "_fp_memo", None)
    if fp is None:
        fp = fingerprint(det)
        det._fp_memo = fp
    return fp


def queue_log_name(channel_index: int) -> str:
    return f"queue:{channel_index}"


class EpochLog:
    """An append-only determinant log segmented by checkpoint epoch.

    Wire sizes are tracked incrementally (`bytes_held`) so the memory
    experiments of Section 7.5 can sample determinant-pool usage cheaply.
    """

    def __init__(self):
        self._epochs: Dict[int, List[Determinant]] = {}
        self.bytes_held = 0
        #: Monotone change counter: bumped whenever an entry is added (by
        #: append or merge).  Dispatch cursors use it to skip whole logs that
        #: have not changed since a channel's last delta, which is the common
        #: case once determinant sharing fans bundles out.
        self.version = 0
        #: Rolling per-epoch content fingerprint, maintained incrementally
        #: by every API-mediated append/merge.  Out-of-band mutation (the
        #: chaos engine's determinant truncation) leaves it stale, which is
        #: exactly what :meth:`verify` detects.
        self._crcs: Dict[int, int] = {}
        #: Cumulative wire-byte prefix per epoch (``_cum[e][i]`` = bytes of
        #: ``entries[0..i]``), recorded at append/merge time — determinants
        #: are serialized into the log exactly once, so the append-time size
        #: is the size every later delta ships.  Lets delta assembly price a
        #: slice in O(1) instead of re-walking every determinant.
        self._cum: Dict[int, List[int]] = {}
        self._sorted_epochs: Optional[List[int]] = None
        #: Per-output-channel dispatch state, owned by the CausalLogManager
        #: holding this log: channel -> ``[version at last delta,
        #: {epoch: entries sent}]``.  Logs are never shared between managers
        #: (merges copy into private lists), so keeping the cursor on the log
        #: replaces the tuple-keyed global cursor dict the delta hot loop
        #: used to hash into.
        self._chan: Dict[int, List[Any]] = {}

    def append(self, epoch: int, determinant: Determinant) -> int:
        """Append and return the entry's index within its epoch."""
        entries = self._epochs.get(epoch)
        if entries is None:
            entries = self._epochs[epoch] = []
            self._cum[epoch] = []
            self._sorted_epochs = None
        size = determinant.wire_size()
        cum = self._cum[epoch]
        cum.append((cum[-1] if cum else 0) + size)
        entries.append(determinant)
        self.version += 1
        self.bytes_held += size
        self._crcs[epoch] = combine(
            self._crcs.get(epoch, _CRC_SEED), _det_fp(determinant)
        )
        return len(entries) - 1

    def entries(self, epoch: int) -> List[Determinant]:
        """Entries of ``epoch`` — possibly a shared empty list; callers must
        treat the result as read-only."""
        found = self._epochs.get(epoch)
        return found if found is not None else _NO_ENTRIES

    def slice_bytes(self, epoch: int, start: int, end: int) -> int:
        """Wire bytes of ``entries(epoch)[start:end]`` in O(1), from the
        append-time prefix sums."""
        if start >= end:
            return 0
        cum = self._cum[epoch]
        return cum[end - 1] - (cum[start - 1] if start else 0)

    def epochs(self) -> List[int]:
        """Epochs in ascending order.  The returned list is a cached view —
        callers must not mutate it."""
        cached = self._sorted_epochs
        if cached is None:
            cached = self._sorted_epochs = sorted(self._epochs)
        return cached

    def length(self, epoch: int) -> int:
        return len(self._epochs.get(epoch, ()))

    def truncate_before(self, epoch: int) -> int:
        """Drop epochs earlier than ``epoch`` (checkpoint complete)."""
        stale = [e for e in self._epochs if e < epoch]
        dropped = sum(len(self._epochs[e]) for e in stale)
        for e in stale:
            cum = self._cum.pop(e, None)
            if cum:
                self.bytes_held -= cum[-1]
            else:
                self.bytes_held -= sum(d.wire_size() for d in self._epochs[e])
            del self._epochs[e]
            self._crcs.pop(e, None)
        if stale:
            self._sorted_epochs = None
        return dropped

    def merge_slice(self, epoch: int, base_index: int, entries: List[Determinant]) -> None:
        """Idempotent merge of a delta slice: extend the epoch's entries with
        whatever part of ``entries`` lies beyond what we already hold."""
        stored = self._epochs.get(epoch)
        if stored is None:
            stored = self._epochs[epoch] = []
            self._cum[epoch] = []
            self._sorted_epochs = None
        have = len(stored)
        if base_index > have:
            raise DeterminantLogError(
                f"delta gap: have {have} entries of epoch {epoch}, "
                f"delta starts at {base_index}"
            )
        new_from = have - base_index
        if new_from < len(entries):
            fresh = entries[new_from:]
            stored.extend(fresh)
            self.version += 1
            cum = self._cum.setdefault(epoch, [])
            before = total = cum[-1] if cum else 0
            crc = self._crcs.get(epoch, _CRC_SEED)
            for det in fresh:
                total += det.wire_size()
                cum.append(total)
                crc = combine(crc, _det_fp(det))
            self._crcs[epoch] = crc
            self.bytes_held += total - before

    def verify(self, name: str = "") -> None:
        """Raise :class:`IntegrityError` if any epoch's entries no longer
        match its rolling fingerprint.  Epochs without a recorded CRC (e.g.
        a transient recovery bundle assembled by :func:`merge_bundles`) are
        skipped — they were never sealed."""
        for epoch, expected in self._crcs.items():
            crc = _CRC_SEED
            for det in self._epochs.get(epoch, ()):
                crc = combine(crc, fingerprint(det))
            if crc != expected:
                raise IntegrityError(
                    "determinant-log",
                    f"{name}@epoch{epoch}",
                    expected=expected,
                    actual=crc,
                )

    def size_bytes(self) -> int:
        return sum(
            det.wire_size() for entries in self._epochs.values() for det in entries
        )

    def total_entries(self) -> int:
        return sum(len(entries) for entries in self._epochs.values())


class LogBundle:
    """All of one task's logs: main thread + one per output channel."""

    def __init__(self, num_output_channels: int = 0):
        self.logs: Dict[str, EpochLog] = {MAIN: EpochLog()}
        for c in range(num_output_channels):
            self.logs[queue_log_name(c)] = EpochLog()

    def log(self, name: str) -> EpochLog:
        if name not in self.logs:
            self.logs[name] = EpochLog()
        return self.logs[name]

    def truncate_before(self, epoch: int) -> int:
        return sum(log.truncate_before(epoch) for log in self.logs.values())

    def verify(self, owner: str = "") -> None:
        """Verify every log's rolling fingerprints (see EpochLog.verify)."""
        for name, log in self.logs.items():
            log.verify(f"{owner}:{name}" if owner else name)

    def size_bytes(self) -> int:
        return sum(log.size_bytes() for log in self.logs.values())

    def total_entries(self) -> int:
        return sum(log.total_entries() for log in self.logs.values())


def merge_bundles(bundles: List[LogBundle]) -> LogBundle:
    """Merge determinant bundles retrieved from several downstream holders:
    per (log, epoch), keep the longest prefix (all holders saw consistent
    prefixes because deltas travel FIFO with the data)."""
    merged = LogBundle()
    for bundle in bundles:
        for name, log in bundle.logs.items():
            target = merged.log(name)
            for epoch in log.epochs():
                if log.length(epoch) > target.length(epoch):
                    target._epochs[epoch] = list(log.entries(epoch))
                    target._cum[epoch] = list(log._cum.get(epoch, ()))
                    target._sorted_epochs = None
                    target.version += 1
    return merged


#: One delta slice: (task_id, log_name, epoch, base_index, entries).
DeltaSlice = Tuple[str, str, int, int, List[Determinant]]


def delta_wire_size(slices: List[DeltaSlice]) -> int:
    """Serialized size of a delta: per-slice header + determinant bytes."""
    total = 0
    for _task, _log, _epoch, _base, entries in slices:
        total += 12 + sum(det.wire_size() for det in entries)
    return total


class CausalLogManager:
    """Per-task causal logging state: own bundle, cursors, causal store.

    ``dsd`` is the determinant sharing depth: a dispatched delta carries this
    task's own bundle always, plus the stored bundles of upstream tasks whose
    distance from this task is < dsd (so with dsd=1 only the task's own
    determinants travel one hop; with dsd=2 the direct upstream's bundle is
    forwarded one extra hop, etc.).  ``dsd=0`` disables causal logging
    (Clonos' at-least-once configuration, Section 5.4).
    """

    def __init__(self, task_id: str, num_output_channels: int, dsd: Optional[int]):
        self.task_id = task_id
        self.dsd = dsd  # None = full
        self.bundle = LogBundle(num_output_channels)
        self.current_epoch = 0
        #: causal store: upstream task_id -> (distance, LogBundle)
        self.store: Dict[str, Tuple[int, LogBundle]] = {}
        #: cached _shareable_bundles result; invalidated when the store
        #: gains a task or a distance improves (both rare after warm-up).
        self._share_cache: Optional[List[Tuple[str, int, LogBundle]]] = None
        #: total determinant bytes shipped (for the memory/overhead metrics).
        self.delta_bytes_sent = 0
        #: epochs below this are truncated (checkpoint complete); late deltas
        #: for them are obsolete and ignored.
        self.truncated_before = 0
        #: High-water mark of determinant bytes held (the determinant buffer
        #: pool sizing question of Section 7.5).
        self.peak_bytes_held = 0

    @property
    def enabled(self) -> bool:
        return self.dsd is None or self.dsd > 0

    # -- appending (normal operation) ----------------------------------------

    def append_main(self, determinant: Determinant) -> None:
        self.bundle.log(MAIN).append(self.current_epoch, determinant)

    def append_queue(
        self, channel_index: int, determinant: Determinant, epoch: Optional[int] = None
    ) -> None:
        self.bundle.log(queue_log_name(channel_index)).append(
            self.current_epoch if epoch is None else epoch, determinant
        )

    # -- deltas ------------------------------------------------------------------

    def _shareable_bundles(self) -> List[Tuple[str, int, LogBundle]]:
        """Bundles to piggyback: own (distance 0) + stored ones with
        distance < dsd - 1 ... i.e. whose *receiver* distance stays <= dsd."""
        cached = self._share_cache
        if cached is not None:
            return cached
        bundles: List[Tuple[str, int, LogBundle]] = [(self.task_id, 0, self.bundle)]
        for task_id, (distance, bundle) in self.store.items():
            limit = self.dsd if self.dsd is not None else None
            # The receiver would hold this bundle at distance + 2 hops from
            # its origin... origin -> us is (distance+1) hops; forwarding adds
            # one more. Forward only if the origin's determinants are still
            # within the sharing depth at the receiver.
            if limit is None or distance + 2 <= limit:
                bundles.append((task_id, distance, bundle))
        self._share_cache = bundles
        return bundles

    def delta_for_dispatch(self, channel_index: int) -> Tuple[List[DeltaSlice], int]:
        """Collect everything channel ``channel_index`` has not carried yet."""
        if not self.enabled:
            return [], 0
        slices: List[DeltaSlice] = []
        append = slices.append
        nbytes = 0
        for task_id, _distance, bundle in self._shareable_bundles():
            for log_name, log in bundle.logs.items():
                version = log.version
                chan = log._chan
                state = chan.get(channel_index)
                if state is None:
                    # version starts at 0 and only grows, so -1 forces the
                    # first walk.
                    state = chan[channel_index] = [-1, {}]
                elif state[0] == version:
                    # Unchanged since this channel's last delta: the log
                    # gained no entries, skip the per-epoch cursor walk.
                    continue
                sent_by_epoch = state[1]
                for epoch in log.epochs():
                    entries = log._epochs[epoch]
                    count = len(entries)
                    sent = sent_by_epoch.get(epoch, 0)
                    if sent < count:
                        append((task_id, log_name, epoch, sent, entries[sent:]))
                        sent_by_epoch[epoch] = count
                        nbytes += 12 + log.slice_bytes(epoch, sent, count)
                state[0] = version
        self.delta_bytes_sent += nbytes
        return slices, nbytes

    def merge_delta(self, slices: Iterable[DeltaSlice], sender_task_id: str) -> None:
        """Receiver side: store the piggybacked determinants *before* the
        buffer's records are processed (the always-no-orphans discipline)."""
        store = self.store
        truncated_before = self.truncated_before
        # Slices of one delta arrive grouped by origin task and log (the
        # dispatch loop iterates bundle by bundle, log by log), so caching
        # the last-resolved bundle/log saves the lookups per slice.
        last_task: Optional[str] = None
        last_bundle: Optional[LogBundle] = None
        last_log_name: Optional[str] = None
        last_log: Optional[EpochLog] = None
        for task_id, log_name, epoch, base_index, entries in slices:
            if epoch < truncated_before:
                # The checkpoint-complete RPC raced ahead of this delta: the
                # epoch is already stable, its determinants are obsolete.
                continue
            if task_id != last_task:
                prior = store.get(task_id)
                if prior is None:
                    distance = 0 if task_id == sender_task_id else 1
                    last_bundle = LogBundle()
                    store[task_id] = (distance, last_bundle)
                    self._share_cache = None
                else:
                    # Keep the shortest observed distance.
                    old_distance, last_bundle = prior
                    distance = 0 if task_id == sender_task_id else old_distance
                    if distance < old_distance:
                        store[task_id] = (distance, last_bundle)
                        self._share_cache = None
                last_task = task_id
                last_log_name = None
            if log_name != last_log_name:
                last_log = last_bundle.log(log_name)
                last_log_name = log_name
            # Fully-redundant fast path: several upstream channels forward
            # the same origin slices, so most arrive already held.  This is
            # exactly merge_slice's no-op condition, checked without the
            # call.
            stored = last_log._epochs.get(epoch)
            if stored is not None and base_index + len(entries) <= len(stored):
                continue
            try:
                last_log.merge_slice(epoch, base_index, entries)
            except DeterminantLogError as exc:
                raise DeterminantLogError(
                    f"{self.task_id}: merging delta of task={task_id} "
                    f"log={log_name} from sender={sender_task_id}: {exc}"
                ) from exc

    def _all_logs(self) -> Iterable[EpochLog]:
        """Every log this manager holds: own bundle + causal store."""
        yield from self.bundle.logs.values()
        for _distance, bundle in self.store.values():
            yield from bundle.logs.values()

    # -- recovery support -----------------------------------------------------------

    def stored_bundle_for(self, task_id: str) -> Optional[LogBundle]:
        entry = self.store.get(task_id)
        return entry[1] if entry is not None else None

    def reset_channel_cursors(self, channel_index: int) -> None:
        """A downstream task reconnected after recovery: its causal store may
        be empty, so the next buffers on this channel must re-carry the full
        log.  Receivers merge by index, so over-sending is idempotent."""
        for log in self._all_logs():
            log._chan.pop(channel_index, None)

    # -- epoch lifecycle ---------------------------------------------------------------

    def on_barrier(self, checkpoint_id: int) -> None:
        """Epoch boundary passed the main thread."""
        self.current_epoch = checkpoint_id
        self.note_peak()

    def on_checkpoint_complete(self, checkpoint_id: int) -> int:
        """Truncate everything older than the completed checkpoint."""
        self.note_peak()  # the high-water mark: just before truncation
        self.truncated_before = max(self.truncated_before, checkpoint_id)
        dropped = self.bundle.truncate_before(checkpoint_id)
        for _task_id, (_distance, bundle) in self.store.items():
            dropped += bundle.truncate_before(checkpoint_id)
        for log in self._all_logs():
            for state in log._chan.values():
                sent_by_epoch = state[1]
                for e in [e for e in sent_by_epoch if e < checkpoint_id]:
                    del sent_by_epoch[e]
        return dropped

    def size_bytes(self) -> int:
        """Total determinant bytes held (own + stored)."""
        return self.bundle.size_bytes() + sum(
            bundle.size_bytes() for _d, bundle in self.store.values()
        )

    def bytes_held(self) -> int:
        """Incrementally-tracked variant of :meth:`size_bytes` (O(logs))."""
        total = sum(log.bytes_held for log in self.bundle.logs.values())
        for _distance, bundle in self.store.values():
            total += sum(log.bytes_held for log in bundle.logs.values())
        return total

    def note_peak(self) -> None:
        current = self.bytes_held()
        if current > self.peak_bytes_held:
            self.peak_bytes_held = current
