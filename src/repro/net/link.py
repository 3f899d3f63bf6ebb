"""Network links: reliable FIFO wires between task endpoints.

A :class:`NetworkLink` is the physical connection behind one logical channel.
It survives the failure of either endpoint; recovery *re-attaches* a new
sender or receiver (Section 6.2, dynamic network reconfiguration) and the
link reports the hand-shake information both sides need (the receiver's last
received sequence number, used for sender-side deduplication).
"""

from __future__ import annotations

from typing import Optional

from repro.config import CostModel
from repro.errors import NetworkError
from repro.net.buffer import NetworkBuffer
from repro.sim.core import Environment
from repro.sim.queues import Signal, Store


class LinkChaos:
    """Fault state injected into one :class:`NetworkLink` by ``repro.chaos``.

    Three fault shapes, all FIFO-preserving:

    * **delay spike** — ``delay_factor`` scales transmission time;
    * **partition** — delivery holds (senders back up on the in-transit
      window) until :meth:`heal`;
    * **buffer loss** — the next ``drop_next`` deliveries are discarded and
      the link goes *broken* (every later delivery is dropped too, because
      delivering a successor of a lost buffer would violate FIFO); repair is
      sender-driven: the chaos engine notices the loss via ``on_loss`` and
      has the upstream's in-flight log retransmit from the receiver's last
      delivered sequence number.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.delay_factor = 1.0
        self.partitioned = False
        self._heal_signal = Signal(env)
        #: Pending injected drops; the first one breaks the link.
        self.drop_next = 0
        self.broken = False
        self.dropped = 0
        #: Called once per loss episode with the link, from the pump.
        self.on_loss = None

    def heal(self) -> None:
        if self.partitioned:
            self.partitioned = False
            self._heal_signal.pulse()

    def wait_heal(self):
        return self._heal_signal.wait()


class ReceiverEndpoint:
    """What a link needs from the receiving side (implemented by
    :class:`repro.net.gate.InputChannel`)."""

    def deliver(self, buffer: NetworkBuffer):
        """Return a waitable event; blocking models exhausted credits."""
        raise NotImplementedError


class NetworkLink:
    """One FIFO wire with latency, bandwidth, and a small in-transit window.

    While no receiver is attached (the downstream task is dead and not yet
    replaced), delivered buffers are *dropped*: this is precisely the data
    that upstream in-flight logs exist to regenerate.
    """

    def __init__(self, env: Environment, cost: CostModel, name: str = "", capacity: int = 4):
        self.env = env
        self.cost = cost
        self.name = name
        self._wire: Store[NetworkBuffer] = Store(env, capacity=capacity)
        self._receiver: Optional[ReceiverEndpoint] = None
        #: Bumped on reset(): the pump drops any buffer it picked up before
        #: the reset (data in the TCP stack dies with the connection).
        self._generation = 0
        #: Buffers dropped because the receiver was dead; for assertions.
        self.dropped_buffers = 0
        #: Total payload + determinant bytes carried, for overhead metrics.
        self.bytes_carried = 0
        self.buffers_carried = 0
        #: Installed by the chaos engine; None on healthy links (zero cost).
        self.chaos: Optional[LinkChaos] = None
        self._pump_proc = env.process(self._pump(), name=f"link-pump:{name}")

    @property
    def receiver(self) -> Optional[ReceiverEndpoint]:
        return self._receiver

    def attach_receiver(self, receiver: ReceiverEndpoint) -> None:
        """Connect (or re-connect after recovery) the receiving endpoint."""
        self._receiver = receiver

    def detach_receiver(self) -> None:
        """Called when the downstream task dies: in-transit data is lost."""
        self._receiver = None

    def send(self, buffer: NetworkBuffer):
        """Hand a buffer to the wire; blocks when the transmit window is full."""
        return self._wire.put(buffer)

    def reset(self) -> int:
        """Connection reset (the sender died): in-transit data is lost and
        the dead sender's queued puts are purged.  Returns dropped count."""
        self._generation += 1
        # Discard the queued puts first: clearing the wire admits waiting
        # puts into the freed slots, and an admitted buffer of the dead
        # sender would be delivered after the dropped ones -- a sequence
        # gap the receiver reports as delivered, so the replacement's
        # sender-side dedup would suppress the records in the gap.
        waiting = self._wire.drop_waiting_puts()
        dropped = self._wire.clear()
        for buffer in dropped + waiting:
            self._drop(buffer)
        return len(dropped)

    @property
    def in_transit(self) -> int:
        return len(self._wire)

    def purge(self) -> int:
        """Chaos repair: drop everything currently on the wire — queued
        buffers, the one mid-transmission (via the generation bump), and
        blocked puts (admitted, then dropped).  After a loss the in-flight
        log regenerates all of it; delivering any of it would break FIFO.
        Returns the number of buffers purged."""
        self._generation += 1
        count = 0
        while True:
            dropped = self._wire.clear()
            if not dropped:
                break
            for buffer in dropped:
                self._drop(buffer)
                count += 1
        return count

    def _pump(self):
        while True:
            buffer = yield self._wire.get()
            generation = self._generation
            transmission = self.cost.transmission_time(buffer.total_bytes)
            chaos = self.chaos
            if chaos is not None and chaos.delay_factor != 1.0:
                transmission *= chaos.delay_factor
            yield self.env.timeout(transmission)
            self.bytes_carried += buffer.total_bytes
            self.buffers_carried += 1
            chaos = self.chaos
            while chaos is not None and chaos.partitioned:
                # Partition: hold delivery (FIFO preserved); the bounded
                # in-transit window backpressures the sender meanwhile.
                yield chaos.wait_heal()
                chaos = self.chaos
            receiver = self._receiver
            if receiver is None or generation != self._generation:
                self._drop(buffer)
                continue
            if chaos is not None and (chaos.broken or chaos.drop_next > 0):
                # Injected loss.  After the first dropped buffer the link is
                # *broken* — delivering any successor would break FIFO — so
                # everything drains to the floor until the sender-side
                # repair (in-flight log retransmission) clears ``broken``.
                first = not chaos.broken
                if chaos.drop_next > 0:
                    chaos.drop_next -= 1
                chaos.broken = True
                chaos.dropped += 1
                self._drop(buffer)
                if first and chaos.on_loss is not None:
                    chaos.on_loss(self)
                continue
            try:
                yield receiver.deliver(buffer)
            except NetworkError:
                # Receiver torn down while we were blocked on its credits.
                self._drop(buffer)

    def _drop(self, buffer: NetworkBuffer) -> None:
        self.dropped_buffers += 1
        if buffer.recycle_on_consume:
            buffer.recycle()
