"""Integration tests for links, gates, and writers (no runtime layer yet)."""

import types

import pytest

from repro.config import CostModel
from repro.graph.elements import CheckpointBarrier, StreamRecord
from repro.net import (
    BufferPool,
    HashPartitioner,
    InputChannel,
    InputGate,
    NetworkLink,
    OutputChannel,
    RecordWriter,
    RebalancePartitioner,
)
from repro.sim import Environment


def make_cost(**overrides):
    cost = CostModel(**overrides)
    return cost


def build_pair(env, cost, n_channels=1, input_capacity=8, pool_buffers=10):
    """One writer with n channels wired to one input gate."""
    charges = []
    charge = charges.append
    pool = BufferPool(
        env, pool_buffers * cost.buffer_size_bytes, cost.buffer_size_bytes, "out"
    )
    links, out_channels, in_channels = [], [], []
    for i in range(n_channels):
        link = NetworkLink(env, cost, name=f"l{i}")
        in_ch = InputChannel(env, i, capacity=input_capacity)
        link.attach_receiver(in_ch)
        links.append(link)
        in_channels.append(in_ch)
        out_channels.append(OutputChannel(env, cost, i, link, pool, charge))
    gate = InputGate(env, in_channels)
    writer = RecordWriter(
        env,
        cost,
        out_channels,
        RebalancePartitioner() if n_channels > 1 else HashPartitioner(),
        charge,
    )
    return writer, gate, links, pool, charges


def drain_records(env, gate, count):
    got = []

    def consumer():
        while len(got) < count:
            _idx, buffer = yield from gate.next_buffer()
            for el in buffer.elements:
                if el.is_record:
                    got.append(el.value)
            if buffer.recycle_on_consume:
                buffer.recycle()

    env.process(consumer())
    return got


def test_records_flow_fifo_through_link():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost)
    got = drain_records(env, gate, 50)

    def producer():
        for i in range(50):
            yield from writer.emit(StreamRecord(i, key=0))
        yield from writer.flush_all()

    env.process(producer())
    env.run()
    assert got == list(range(50))


def test_buffer_cut_when_full():
    env = Environment()
    cost = make_cost(buffer_size_bytes=128)
    writer, gate, links, _pool, _ = build_pair(env, cost)
    got = drain_records(env, gate, 40)

    def producer():
        for i in range(40):
            yield from writer.emit(StreamRecord(i, key=0))
        yield from writer.flush_all()

    env.process(producer())
    env.run()
    assert got == list(range(40))
    # 128-byte buffers hold 4 records of 32 bytes: at least 10 buffers.
    assert links[0].buffers_carried >= 10


def test_backpressure_blocks_producer_when_consumer_slow():
    env = Environment()
    cost = make_cost(buffer_size_bytes=128)
    writer, gate, _links, pool, _ = build_pair(env, cost, input_capacity=2, pool_buffers=4)
    produced = []

    def producer():
        for i in range(200):
            yield from writer.emit(StreamRecord(i, key=0))
            yield from writer.flush_all()
            produced.append(i)

    def slow_consumer():
        while True:
            _idx, buffer = yield from gate.next_buffer()
            yield env.timeout(1.0)
            if buffer.recycle_on_consume:
                buffer.recycle()

    env.process(producer())
    env.process(slow_consumer())
    env.run(until=10.0)
    # Pipeline depth is pool(4) + wire(4) + input queue(2) plus the one being
    # consumed; the producer must be throttled well below 200.
    assert len(produced) < 20
    assert pool.available_buffers == 0


def test_rebalance_round_robin_across_channels():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost, n_channels=3)
    seen_channels = []

    def consumer():
        while len(seen_channels) < 3:
            idx, buffer = yield from gate.next_buffer()
            seen_channels.append(idx)
            if buffer.recycle_on_consume:
                buffer.recycle()

    def producer():
        for i in range(3):
            yield from writer.emit(StreamRecord(i, key=i))
        yield from writer.flush_all()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert sorted(seen_channels) == [0, 1, 2]


def test_hash_partitioning_is_stable():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost, n_channels=4)
    part = HashPartitioner()
    record = StreamRecord("payload", key="user-42")
    first = part.select(record, 4)
    assert all(part.select(record, 4) == first for _ in range(10))


def test_barrier_is_flushed_immediately_and_advances_epoch():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost)
    elements = []

    def consumer():
        while len(elements) < 3:
            _idx, buffer = yield from gate.next_buffer()
            elements.extend(buffer.elements)
            if buffer.recycle_on_consume:
                buffer.recycle()

    def producer():
        yield from writer.emit(StreamRecord(1, key=0))
        yield from writer.broadcast_barrier(CheckpointBarrier(1))
        yield from writer.emit(StreamRecord(2, key=0))
        yield from writer.flush_all()

    env.process(producer())
    env.process(consumer())
    env.run()
    kinds = [type(el).__name__ for el in elements]
    assert kinds == ["StreamRecord", "CheckpointBarrier", "StreamRecord"]
    assert writer.channels[0].epoch == 1


def test_epoch_tagging_of_buffers():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost)
    buffers = []

    def consumer():
        while len(buffers) < 3:
            _idx, buffer = yield from gate.next_buffer()
            buffers.append(buffer)

    def producer():
        yield from writer.emit(StreamRecord(1, key=0))
        yield from writer.broadcast_barrier(CheckpointBarrier(1))
        yield from writer.emit(StreamRecord(2, key=0))
        yield from writer.flush_all()

    env.process(producer())
    env.process(consumer())
    env.run()
    # Pre-barrier buffer (with the barrier riding last) is epoch 0; the
    # post-barrier buffer is epoch 1.
    assert [b.epoch for b in buffers] == [0, 1]
    assert buffers[0].elements[-1].is_barrier


def test_alignment_blocks_channel_until_unblocked():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost, n_channels=2)
    order = []

    def producer():
        # channel 0 then channel 1 (rebalance round-robin)
        yield from writer.emit(StreamRecord("a", key=0))
        yield from writer.emit(StreamRecord("b", key=0))
        yield from writer.flush_all()

    def consumer():
        idx, buffer = yield from gate.next_buffer()
        order.append((idx, buffer.elements[0].value))
        gate.block_channel(1 - idx)  # block the other channel
        # give the other channel's data time to arrive and defer
        yield env.timeout(1.0)
        assert gate.poll_buffer() is None
        gate.unblock_all()
        idx2, buffer2 = yield from gate.next_buffer()
        order.append((idx2, buffer2.elements[0].value))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert len(order) == 2
    assert {o[1] for o in order} == {"a", "b"}


def test_dead_receiver_drops_buffers():
    env = Environment()
    cost = make_cost()
    writer, gate, links, pool, _ = build_pair(env, cost)
    links[0].detach_receiver()

    def producer():
        for i in range(5):
            yield from writer.emit(StreamRecord(i, key=0))
            yield from writer.flush_all()

    env.process(producer())
    env.run()
    assert links[0].dropped_buffers == 5
    # Dropped vanilla buffers are recycled: no pool leak.
    assert pool.available_buffers == pool.total_buffers


def test_writer_snapshot_restore_roundtrip():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost, n_channels=2)

    def producer():
        for i in range(10):
            yield from writer.emit(StreamRecord(i, key=i))
        yield from writer.flush_all()

    env.process(producer())
    drain_records(env, gate, 10)
    env.run()
    state = writer.snapshot_state()
    writer.channels[0].seq = 999
    writer.restore_state(state)
    assert writer.channels[0].seq != 999
    assert state["partitioner"] == 10


def test_input_channel_close_fails_pending_put_and_recycles():
    env = Environment()
    cost = make_cost()
    writer, gate, links, pool, _ = build_pair(env, cost, input_capacity=1, pool_buffers=4)

    def producer():
        for i in range(10):
            yield from writer.emit(StreamRecord(i, key=0))
            yield from writer.flush_all()

    env.process(producer())
    env.run(until=0.5)
    gate.close()
    env.run(until=1.0)
    assert links[0].dropped_buffers > 0


def test_reset_never_delivers_a_dead_senders_waiting_put():
    # A dead sender's buffer still waiting for a wire slot must die with the
    # connection: clearing the wire would otherwise admit it, and it would
    # be delivered after a gap the receiver then reports as delivered.
    env = Environment()
    link = NetworkLink(env, make_cost(), name="l", capacity=1)
    receiver = InputChannel(env, 0, capacity=1)
    link.attach_receiver(receiver)
    buffers = [
        types.SimpleNamespace(seq=s, total_bytes=64, recycle_on_consume=False)
        for s in range(4)
    ]

    def sender():
        for buffer in buffers:
            yield link.send(buffer)

    env.process(sender())
    env.run(until=0.01)
    # seq 0 queued at the receiver, seq 1 held by the pump (no credit),
    # seq 2 on the wire, seq 3 waiting for a wire slot.
    assert [b.seq for b in receiver.queue.items] == [0]
    link.reset()
    delivered = []

    def consumer():
        while True:
            buffer = yield receiver.queue.get()
            delivered.append(buffer.seq)

    env.process(consumer())
    env.run(until=0.1)
    # seq 1 was already handed to the receiver; nothing after it arrives.
    assert delivered == [0, 1]
    assert receiver.delivered_seq == 1
    assert link.dropped_buffers == 2


def test_put_waiting_for_a_credit_counts_as_delivered():
    # The pump of a dead sender may be parked in ``deliver`` when the
    # replacement handshakes; that buffer still lands, so the handshake must
    # already count it or the replacement sends it a second time.
    env = Environment()
    link = NetworkLink(env, make_cost(), name="l", capacity=1)
    receiver = InputChannel(env, 0, capacity=1)
    link.attach_receiver(receiver)

    def buffer(seq):
        return types.SimpleNamespace(seq=seq, total_bytes=64, recycle_on_consume=False)

    def sender(seqs):
        for seq in seqs:
            yield link.send(buffer(seq))

    env.process(sender(range(4)))
    env.run(until=0.01)
    link.reset()
    suppress_until_seq = receiver.delivered_seq
    env.process(sender(range(suppress_until_seq + 1, 4)))
    delivered = []

    def consumer():
        while True:
            got = yield receiver.queue.get()
            delivered.append(got.seq)

    env.process(consumer())
    env.run(until=0.1)
    assert delivered == [0, 1, 2, 3]
