"""End-to-end smoke tests: every Nexmark query runs and produces output."""

import pytest

from repro.config import FaultToleranceMode
from repro.harness.experiment import run_experiment
from repro.harness.figures import experiment_config, nexmark_graph_fn
from repro.nexmark.generator import NexmarkGenerator
from repro.nexmark.model import Bid, Person
from repro.nexmark.queries import QUERIES, q1, q3

from tests.runtime.helpers import make_config

#: Queries that emit an output per matching input (not window-bursty).
STREAMY = ("Q1", "Q2", "Q13", "Q14")


def build_query(name, events=2500, rate=1500.0, parallelism=2):
    def graph_fn(log, external):
        generator = NexmarkGenerator(seed=5, rate_per_partition=rate)
        generator.install_topic(log, "nexmark", parallelism, events)
        log.create_topic("out", parallelism)
        return QUERIES[name](log, parallelism=parallelism, external=external)

    return graph_fn


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_query_runs_and_produces_output(name):
    config = make_config(FaultToleranceMode.CLONOS, checkpoint_interval=0.5)
    result = run_experiment(
        build_query(name), config, with_external=(name == "Q13"), limit=300
    )
    assert len(result.output_values()) > 0, f"{name} produced no output"


def test_q1_converts_currency():
    config = make_config(FaultToleranceMode.CLONOS)
    result = run_experiment(build_query("Q1"), config, limit=300)
    outputs = result.output_values()
    assert all(isinstance(v, Bid) for v in outputs)
    generator = NexmarkGenerator(seed=5, rate_per_partition=1500.0)
    bids = [
        generator.generate(p, off)
        for p in range(2)
        for off in range(2500)
        if isinstance(generator.generate(p, off), Bid)
    ]
    assert len(outputs) == len(bids)
    expected_prices = sorted(round(b.price * 0.908, 2) for b in bids)
    assert sorted(v.price for v in outputs) == expected_prices


def test_q2_filters_auctions():
    config = make_config(FaultToleranceMode.CLONOS)
    result = run_experiment(build_query("Q2"), config, limit=300)
    assert all(auction % 123 in (0, 1, 2) for auction, _price in result.output_values())


def test_q3_join_output_shape():
    config = make_config(FaultToleranceMode.CLONOS)
    result = run_experiment(build_query("Q3", events=4000), config, limit=300)
    for name, _city, state, _auction in result.output_values():
        assert state in ("OR", "ID", "CA")
        assert isinstance(name, str)


def test_q5_reports_hot_items():
    config = make_config(FaultToleranceMode.CLONOS)
    result = run_experiment(build_query("Q5", events=4000), config, limit=300)
    for row in result.output_values():
        assert row["bids"] >= 1


def test_q5_winner_does_not_depend_on_the_fault_tolerance_mode():
    # Seed 7 at 10 000 saturated events per partition has a window where
    # two auctions tie on bids; arrival order at the max stages differs
    # between the modes, so a first-arrival tie-break picked different
    # winners.  Ties now go to the lowest auction id.
    outputs = []
    for mode in (FaultToleranceMode.CLONOS, FaultToleranceMode.GLOBAL_ROLLBACK):
        config = experiment_config(mode, None, checkpoint_interval=1.0)
        config.seed = 7
        graph_fn = nexmark_graph_fn("Q5", 2, 10_000, 100_000.0, seed=7)
        result = run_experiment(graph_fn, config, limit=600)
        outputs.append(sorted(tuple(sorted(v.items())) for v in result.output_values()))
    assert outputs[0] and outputs[0] == outputs[1]


def test_q12_counts_are_positive():
    config = make_config(FaultToleranceMode.CLONOS)
    result = run_experiment(build_query("Q12"), config, limit=300)
    assert all(count >= 1 for _bidder, count in result.output_values())


def test_query_depths_match_paper_shape():
    """Q1/Q2 are shallow (D=2); Q5/Q7 carry the aggregation trees (D>=5)."""
    from repro.external.kafka import DurableLog

    log = DurableLog()
    NexmarkGenerator().install_topic(log, "nexmark", 2, 100)
    log.create_topic("out", 2)
    assert QUERIES["Q1"](log).depth == 2
    depths = {}
    for name in ("Q3", "Q5", "Q7", "Q8"):
        log2 = DurableLog()
        NexmarkGenerator().install_topic(log2, "nexmark", 2, 100)
        log2.create_topic("out", 2)
        depths[name] = QUERIES[name](log2).depth
    assert depths["Q3"] == 3
    assert depths["Q5"] >= 5
    assert depths["Q7"] >= 5
    assert depths["Q8"] == 3
