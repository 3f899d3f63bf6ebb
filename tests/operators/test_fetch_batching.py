"""Consumer fetch batching on Kafka sources (``CostModel.source_fetch_wait``).

A poll returns records only once a full batch has arrived (clipped to the
topic's end) or the oldest pending record has waited the fetch linger;
otherwise it returns nothing plus the exact instant the fetch falls due.
The rule reads only the offset and the clock, so replay, rollback catch-up
and broker stalls behave as without batching.
"""

import pytest

from repro.chaos import FaultPlan
from repro.chaos.soak import fast_chaos_config, run_chaos_experiment
from repro.config import FaultToleranceMode
from repro.external.kafka import DurableLog
from repro.operators.source import KafkaSource
from repro.sim.core import Environment

from tests.operators.helpers import OperatorHarness
from tests.runtime.helpers import build_linear_job, fast_cost, make_config

WAIT = 0.005


def source_at(now, rate=1000.0, total=100):
    log = DurableLog()
    log.create_generated_topic(
        "t", 1, lambda p, off: off, rate, total_per_partition=total
    )
    source = KafkaSource(log, "t")
    harness = OperatorHarness(source)
    harness.env.run(until=now)
    return source, harness


def values(records):
    return [r.value for r in records]


class TestPollRule:
    def test_partial_batch_lingers_until_the_head_has_waited(self):
        # Offsets 0..3 have arrived at t=0.0035; the batch of 10 is not full.
        source, h = source_at(0.0035)
        records, wake = source.poll(h.ctx, 10, WAIT)
        assert records == []
        assert wake == pytest.approx(0.0 + WAIT)
        assert source.offset == 0
        h.env.run(until=wake)
        records, _ = source.poll(h.ctx, 10, WAIT)
        assert values(records) == [0, 1, 2, 3, 4, 5]

    def test_full_batch_returns_before_the_linger(self):
        # 10 records at 10 000 rec/s take 0.9 ms, well inside the linger.
        source, h = source_at(0.0005, rate=10000.0)
        records, wake = source.poll(h.ctx, 10, WAIT)
        assert records == []
        assert wake == pytest.approx(9 / 10000.0)
        h.env.run(until=wake)
        records, _ = source.poll(h.ctx, 10, WAIT)
        assert values(records) == list(range(10))

    def test_batch_is_clipped_to_the_topic_end(self):
        source, h = source_at(0.0, total=3)
        records, wake = source.poll(h.ctx, 10, 1.0)
        assert records == []
        assert wake == pytest.approx(0.002)  # the last record, not t=1.0
        h.env.run(until=wake)
        records, _ = source.poll(h.ctx, 10, 1.0)
        assert values(records) == [0, 1, 2]
        assert source.poll(h.ctx, 10, 1.0) == ([], None)

    def test_next_wait_starts_at_the_new_head(self):
        source, h = source_at(WAIT)
        records, _ = source.poll(h.ctx, 10, WAIT)
        assert values(records) == [0, 1, 2, 3, 4, 5]
        records, wake = source.poll(h.ctx, 10, WAIT)
        assert records == []
        assert wake == pytest.approx(0.006 + WAIT)

    def test_zero_wait_returns_whatever_has_arrived(self):
        source, h = source_at(0.0035)
        records, wake = source.poll(h.ctx, 10, 0.0)
        assert values(records) == [0, 1, 2, 3]
        records, wake = source.poll(h.ctx, 10, 0.0)
        assert records == []
        assert wake == pytest.approx(0.004)

    def test_materialised_topic_uses_the_same_rule(self):
        log = DurableLog()
        log.create_topic("m", 1)
        for i, when in enumerate((0.0, 0.001, 0.002)):
            log.partition("m").append(when, i)
        source = KafkaSource(log, "m")
        h = OperatorHarness(source)
        h.env.run(until=0.0015)
        records, wake = source.poll(h.ctx, 10, WAIT)
        assert (records, wake) == ([], 0.002)

    def test_replay_shaped_poll_never_lingers(self):
        # Causal replay asks for exactly the records a determinant names,
        # all of which arrived before the failure, without a linger.
        source, h = source_at(0.05)
        records, _ = source.poll(h.ctx, 3)
        assert values(records) == [0, 1, 2]

    def test_broker_stall_is_checked_first_and_unchanged(self):
        source, h = source_at(0.05)
        source.log.set_outage(until=0.3)
        for wait in (0.0, WAIT):
            records, wake = source.poll(h.ctx, 10, wait)
            assert records == []
            assert wake == pytest.approx(0.3)
        assert source.stalled_polls == 2
        assert source.offset == 0


def test_no_record_waits_longer_than_the_fetch_linger(monkeypatch):
    waits = []
    polls = []
    original = KafkaSource.poll

    def recording_poll(self, ctx, max_records, max_wait=0.0):
        records, wake = original(self, ctx, max_records, max_wait)
        polls.append(bool(records))
        waits.extend(ctx.now - r.created_at for r in records)
        return records, wake

    monkeypatch.setattr(KafkaSource, "poll", recording_poll)
    env = Environment()
    config = make_config(cost=fast_cost(source_fetch_wait=WAIT))
    jm = build_linear_job(env, config, DurableLog(), n_records=600, rate=2000.0)
    jm.run_until_done(limit=60)
    assert len(waits) == 600
    assert max(waits) <= WAIT + 1e-9
    # A poll every linger instead of one per arriving record.
    assert len(polls) < 600 / 5


@pytest.mark.parametrize("mode", [FaultToleranceMode.CLONOS,
                                  FaultToleranceMode.GLOBAL_ROLLBACK])
def test_source_recovery_under_batching_is_exactly_once(mode):
    # Killing a source exercises causal replay (Clonos) and rollback
    # catch-up (global rollback), both of which re-read arrived records.
    config = fast_chaos_config(mode=mode)
    assert config.cost.source_fetch_wait == WAIT
    plan = FaultPlan(seed=1).add(0.3, "task_kill", target="src[0]")
    result = run_chaos_experiment(plan, config=config)
    assert result.missing == 0
    if mode is FaultToleranceMode.CLONOS:
        assert result.verdict == "exactly-once"
        replays = result.jm.trace.events_of("replay-loaded")
        assert any(event.subject == "src[0]" for event in replays)
