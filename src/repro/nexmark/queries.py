"""Nexmark queries Q1-Q9 and the Beam extras Q11-Q14 on the dataflow API.

Q10 is excluded, as in the paper (it needs Google Cloud Storage).  Each
builder returns a :class:`~repro.graph.logical.JobGraph` reading the events
topic and writing results to the output topic.  The graph *shapes* follow
the paper's description: Q1/Q2 are shallow map/filter pipelines (D=2), the
joins sit at D=3, and Q5/Q7 use aggregation trees against key skew (D=6).

Q12 (processing-time windows), Q13 (external side-input lookup), and Q14
(user-defined nondeterministic logic) are the *nondeterministic* queries:
under the baselines their recovery diverges; under Clonos it does not.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import JobError
from repro.external.kafka import DurableLog
from repro.graph.logical import DataStream, JobGraph, JobGraphBuilder
from repro.nexmark.generator import event_timestamp
from repro.nexmark.model import Auction, Bid, Person
from repro.operators import (
    AvgAggregator,
    CountAggregator,
    EventTimeWindowOperator,
    FilterOperator,
    FlatMapOperator,
    FullHistoryJoinOperator,
    KafkaSink,
    KafkaSource,
    MapOperator,
    MaxAggregator,
    ProcessOperator,
    ProcessingTimeWindowOperator,
    SessionWindowOperator,
    SumAggregator,
    WindowJoinOperator,
)

#: USD -> EUR factor of the original query.
DOLLAR_TO_EURO = 0.908

#: Window sizes, scaled down ~10x from the original 10-60s windows so the
#: simulated experiments converge quickly.
WINDOW = 2.0
SLIDE = 0.5
SESSION_GAP = 1.0


def _source(builder: JobGraphBuilder, log: DurableLog, topic: str, parallelism: int
            ) -> DataStream:
    return builder.source(
        "src",
        lambda: KafkaSource(log, topic, timestamp_fn=event_timestamp),
        parallelism=parallelism,
    )


def _is_bid(e) -> bool:
    return isinstance(e, Bid)


def _is_auction(e) -> bool:
    return isinstance(e, Auction)


def _is_person(e) -> bool:
    return isinstance(e, Person)


def q1(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
       out_topic: str = "out", external=None) -> JobGraph:
    """Currency conversion: bid prices from USD to EUR (D=2)."""
    builder = JobGraphBuilder("nexmark-q1")
    src = _source(builder, log, in_topic, parallelism)
    converted = src.process(
        "convert",
        lambda: FlatMapOperator(
            lambda e: [
                Bid(e.auction, e.bidder, round(e.price * DOLLAR_TO_EURO, 2), e.event_time)
            ]
            if _is_bid(e)
            else []
        ),
    )
    converted.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q2(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
       out_topic: str = "out", external=None) -> JobGraph:
    """Selection: bids on a fixed set of auctions (D=2)."""
    builder = JobGraphBuilder("nexmark-q2")
    src = _source(builder, log, in_topic, parallelism)
    selected = src.process(
        "filter",
        lambda: FlatMapOperator(
            lambda e: [(e.auction, e.price)]
            if _is_bid(e) and e.auction % 123 in (0, 1, 2)
            else []
        ),
    )
    selected.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q3(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
       out_topic: str = "out", external=None) -> JobGraph:
    """Local item suggestion: full-history join of sellers in OR/ID/CA with
    their category-10-adjacent auctions (D=3). The paper's single-failure
    latency experiment (Figure 6a/6e) runs this query."""
    builder = JobGraphBuilder("nexmark-q3")
    src = _source(builder, log, in_topic, parallelism)
    persons = src.process(
        "persons",
        lambda: FlatMapOperator(
            lambda e: [e] if _is_person(e) and e.state in ("OR", "ID", "CA") else []
        ),
    ).key_by(lambda p: p.person_id)
    auctions = src.process(
        "auctions",
        lambda: FlatMapOperator(
            lambda e: [e] if _is_auction(e) and e.category < 4 else []
        ),
    ).key_by(lambda a: a.seller)
    joined = builder.connect(
        persons,
        auctions,
        "join",
        lambda: FullHistoryJoinOperator(
            lambda person, auction: (person.name, person.city, person.state, auction.auction_id)
        ),
    )
    joined.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q4(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
       out_topic: str = "out", external=None) -> JobGraph:
    """Average closing price per category (D=4): window-join auctions with
    their bids, take the winning (max) bid, average per category."""
    builder = JobGraphBuilder("nexmark-q4")
    src = _source(builder, log, in_topic, parallelism)
    auctions = src.process(
        "auctions", lambda: FlatMapOperator(lambda e: [e] if _is_auction(e) else [])
    ).key_by(lambda a: a.auction_id)
    bids = src.process(
        "bids", lambda: FlatMapOperator(lambda e: [e] if _is_bid(e) else [])
    ).key_by(lambda b: b.auction)
    winning = builder.connect(
        auctions,
        bids,
        "winning",
        lambda: WindowJoinOperator(
            WINDOW,
            lambda auction, bid: (auction.category, max(bid.price, auction.initial_bid)),
        ),
    )
    averaged = winning.key_by(lambda pair: pair[0]).process(
        "avg",
        lambda: EventTimeWindowOperator(
            WINDOW,
            AvgAggregator(lambda pair: pair[1]),
            result_fn=lambda key, window, value: (key, round(value, 2)),
        ),
    )
    averaged.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def _hot_items_tree(builder: JobGraphBuilder, bids: DataStream, slide: bool) -> DataStream:
    """The skew-resistant aggregation tree shared by Q5 and Q7 (adds depth:
    partial aggregates per hash bucket, then a global winner).

    A tie on the bid count goes to the lowest auction id, so the winner
    never depends on the order in which the partial results arrive."""
    window_kwargs = {"slide": SLIDE} if slide else {}
    counted = bids.key_by(lambda b: b.auction).process(
        "count",
        lambda: EventTimeWindowOperator(
            WINDOW,
            CountAggregator(),
            result_fn=lambda key, window, count: (window.start, key, count),
            **window_kwargs,
        ),
    )
    # The max stages bucket per emitted count-window (keyed by its start),
    # so short tumbling windows suffice and results flow every SLIDE step.
    partial = counted.key_by(lambda t: (t[0], t[1] % 8)).process(
        "partial-max",
        lambda: EventTimeWindowOperator(
            SLIDE,
            MaxAggregator(lambda t: (t[2], -t[1])),
            result_fn=lambda key, window, best: best,
        ),
    )
    return partial.key_by(lambda t: t[0]).process(
        "global-max",
        lambda: EventTimeWindowOperator(
            SLIDE,
            MaxAggregator(lambda t: (t[2], -t[1])),
            result_fn=lambda key, window, best: best,
        ),
    )


def q5(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
       out_topic: str = "out", external=None) -> JobGraph:
    """Hot items: the auction with the most bids per sliding window, via an
    aggregation tree for skewed keys (D=6)."""
    builder = JobGraphBuilder("nexmark-q5")
    src = _source(builder, log, in_topic, parallelism)
    bids = src.process(
        "bids", lambda: FlatMapOperator(lambda e: [e] if _is_bid(e) else [])
    )
    hottest = _hot_items_tree(builder, bids, slide=True)
    enriched = hottest.process(
        "format", lambda: MapOperator(lambda t: {"window": t[0], "auction": t[1], "bids": t[2]})
    )
    enriched.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q6(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
       out_topic: str = "out", external=None) -> JobGraph:
    """Average selling price by seller over recent closed auctions (D=4)."""
    builder = JobGraphBuilder("nexmark-q6")
    src = _source(builder, log, in_topic, parallelism)
    auctions = src.process(
        "auctions", lambda: FlatMapOperator(lambda e: [e] if _is_auction(e) else [])
    ).key_by(lambda a: a.auction_id)
    bids = src.process(
        "bids", lambda: FlatMapOperator(lambda e: [e] if _is_bid(e) else [])
    ).key_by(lambda b: b.auction)
    sold = builder.connect(
        auctions,
        bids,
        "closing",
        lambda: WindowJoinOperator(
            WINDOW,
            lambda auction, bid: (auction.seller, bid.price),
            emit_once_per_key=True,
        ),
    )
    per_seller = sold.key_by(lambda t: t[0]).process(
        "seller-avg",
        lambda: EventTimeWindowOperator(
            2 * WINDOW,
            AvgAggregator(lambda t: t[1]),
            result_fn=lambda key, window, value: (key, round(value, 2)),
        ),
    )
    per_seller.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q7(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
       out_topic: str = "out", external=None) -> JobGraph:
    """Highest bid per period, computed with a local/global max tree (D=6)."""
    builder = JobGraphBuilder("nexmark-q7")
    src = _source(builder, log, in_topic, parallelism)
    bids = src.process(
        "bids", lambda: FlatMapOperator(lambda e: [e] if _is_bid(e) else [])
    )
    local = bids.key_by(lambda b: b.auction % 16).process(
        "local-max",
        lambda: EventTimeWindowOperator(
            WINDOW,
            MaxAggregator(lambda b: b.price),
            result_fn=lambda key, window, bid: (window.start, bid),
        ),
    )
    merged = local.key_by(lambda t: t[0]).process(
        "global-max",
        lambda: EventTimeWindowOperator(
            WINDOW,
            MaxAggregator(lambda t: t[1].price),
            result_fn=lambda key, window, t: t[1],
        ),
    )
    shaped = merged.process(
        "format",
        lambda: MapOperator(lambda bid: (bid.auction, bid.bidder, bid.price)),
    )
    deduped = shaped.key_by(lambda t: t[0]).process(
        "route", lambda: MapOperator(lambda t: t)
    )
    deduped.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q8(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
       out_topic: str = "out", external=None) -> JobGraph:
    """Monitor new users: tumbling-window join of fresh persons with fresh
    auctions by seller (D=3).  The paper's Figure 6b/6f experiment."""
    builder = JobGraphBuilder("nexmark-q8")
    src = _source(builder, log, in_topic, parallelism)
    persons = src.process(
        "persons", lambda: FlatMapOperator(lambda e: [e] if _is_person(e) else [])
    ).key_by(lambda p: p.person_id)
    sellers = src.process(
        "auctions", lambda: FlatMapOperator(lambda e: [e] if _is_auction(e) else [])
    ).key_by(lambda a: a.seller)
    joined = builder.connect(
        persons,
        sellers,
        "join",
        lambda: WindowJoinOperator(
            WINDOW,
            lambda person, auction: (person.person_id, person.name, auction.auction_id),
            emit_once_per_key=False,
        ),
    )
    joined.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q9(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
       out_topic: str = "out", external=None) -> JobGraph:
    """Winning bids (Beam extra): per auction, the highest bid in the
    auction's window (D=4)."""
    builder = JobGraphBuilder("nexmark-q9")
    src = _source(builder, log, in_topic, parallelism)
    auctions = src.process(
        "auctions", lambda: FlatMapOperator(lambda e: [e] if _is_auction(e) else [])
    ).key_by(lambda a: a.auction_id)
    bids = src.process(
        "bids", lambda: FlatMapOperator(lambda e: [e] if _is_bid(e) else [])
    ).key_by(lambda b: b.auction)
    paired = builder.connect(
        auctions,
        bids,
        "match",
        lambda: WindowJoinOperator(WINDOW, lambda auction, bid: (auction.auction_id, bid)),
    )
    winners = paired.key_by(lambda t: t[0]).process(
        "winner",
        lambda: EventTimeWindowOperator(
            WINDOW,
            MaxAggregator(lambda t: t[1].price),
            result_fn=lambda key, window, t: (key, t[1].bidder, t[1].price),
        ),
    )
    winners.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q11(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
        out_topic: str = "out", external=None) -> JobGraph:
    """User sessions (Beam extra): bids per bidder per session window (D=3)."""
    builder = JobGraphBuilder("nexmark-q11")
    src = _source(builder, log, in_topic, parallelism)
    bids = src.process(
        "bids", lambda: FlatMapOperator(lambda e: [e] if _is_bid(e) else [])
    )
    sessions = bids.key_by(lambda b: b.bidder).process(
        "sessions",
        lambda: SessionWindowOperator(
            SESSION_GAP,
            CountAggregator(),
            result_fn=lambda key, window, count: (key, count, window.start),
        ),
    )
    sessions.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q12(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
        out_topic: str = "out", external=None) -> JobGraph:
    """Processing-time windows (Beam extra): bids per bidder per wall-clock
    window — NONDETERMINISTIC (Section 4.1): both the window assignment and
    the trigger instants come from the local clock (D=3)."""
    builder = JobGraphBuilder("nexmark-q12")
    src = _source(builder, log, in_topic, parallelism)
    bids = src.process(
        "bids", lambda: FlatMapOperator(lambda e: [e] if _is_bid(e) else [])
    )
    counted = bids.key_by(lambda b: b.bidder).process(
        "pt-count",
        lambda: ProcessingTimeWindowOperator(
            WINDOW,
            CountAggregator(),
            result_fn=lambda key, window, count: (key, count),
        ),
    )
    counted.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q13(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
        out_topic: str = "out", external=None) -> JobGraph:
    """Bounded side-input join (Beam extra): enrich each bid by querying an
    external service — NONDETERMINISTIC (the answer drifts; Section 4.1,
    UDFs & external calls) (D=3)."""
    if external is None:
        raise JobError("q13 needs the external side-input service")
    builder = JobGraphBuilder("nexmark-q13")
    src = _source(builder, log, in_topic, parallelism)

    def enrich(record, ctx):
        event = record.value
        if not _is_bid(event):
            return
        # The causal HTTP service makes this replayable under Clonos; the
        # runtime drains pending output, so we use the synchronous variant
        # via the custom-service hook.
        rate = ctx.services.custom(
            "side-input", lambda key: external.get_now(key), f"cat/{event.auction % 10}"
        )
        ctx.collect((event.auction, event.bidder, round(event.price * rate / 100.0, 3)))

    enriched = src.key_by(lambda e: getattr(e, "auction", 0)).process(
        "enrich", lambda: ProcessOperator(enrich)
    )
    enriched.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


def q14(log: DurableLog, parallelism: int = 2, in_topic: str = "nexmark",
        out_topic: str = "out", external=None) -> JobGraph:
    """Calculation with user-defined nondeterministic logic (Beam extra):
    the `bounded load` UDF samples the RNG service (Listing 2 style) (D=3)."""
    builder = JobGraphBuilder("nexmark-q14")
    src = _source(builder, log, in_topic, parallelism)

    def calculate(record, ctx):
        event = record.value
        if not _is_bid(event):
            return
        charge = ctx.services.random() * 0.1  # nondeterministic surcharge
        bucket = "hot" if event.price > 500 else "warm"
        ctx.collect((event.auction, bucket, round(event.price * (1 + charge), 3)))

    shaped = src.key_by(lambda e: getattr(e, "auction", 0)).process(
        "calc", lambda: ProcessOperator(calculate)
    )
    shaped.sink("sink", lambda: KafkaSink(log, out_topic))
    return builder.build()


#: All queries, keyed as the paper's Figure 5 x-axis (Q10 excluded).
QUERIES: Dict[str, Callable[..., JobGraph]] = {
    "Q1": q1,
    "Q2": q2,
    "Q3": q3,
    "Q4": q4,
    "Q5": q5,
    "Q6": q6,
    "Q7": q7,
    "Q8": q8,
    "Q9": q9,
    "Q11": q11,
    "Q12": q12,
    "Q13": q13,
    "Q14": q14,
}

#: Queries whose computations are nondeterministic (Table 1's stress cases).
NONDETERMINISTIC_QUERIES = ("Q12", "Q13", "Q14")
