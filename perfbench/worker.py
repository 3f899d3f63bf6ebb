"""One benchmark sample: a single simulated run in a fresh process.

``run.py`` starts this script once per sample so that set-up time and peak
RSS are those of a fresh interpreter.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --kind KIND \
        --started T0 --out RESULT.json [--reference REF.json] [--spans F.gz]

``KIND`` is ``timed`` (untraced, measured), ``traced`` (per-layer tracing
installed before the job is built) or ``reference`` (the failure-free run
whose sink output every other run is compared with).  ``T0`` is the
``time.monotonic()`` reading taken by the parent just before starting this
process, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (benchmark module next to this file)
from repro.metrics.collectors import percentile  # noqa: E402

#: Kernel events per timed chunk of a run.
TICK_EVERY = 256
#: Standard percentiles tried, highest first, for the latency tail.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop: a reading of how
    fast this host runs interpreter code right now (host drift)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - started)
    return best


def latency_tail(latencies_ms):
    """(percentile, samples beyond it, value): the highest standard
    percentile with at least ten samples beyond it, or None."""
    n = len(latencies_ms)
    for q in TAIL_PERCENTILES:
        beyond = n - 1 - int(round(q / 100.0 * (n - 1)))
        if beyond >= 10:
            return q, beyond, percentile(latencies_ms, q)
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", choices=("timed", "traced", "reference"), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--reference")
    parser.add_argument("--spans")
    args = parser.parse_args()

    from repro.harness.experiment import run_experiment
    from repro.runtime.jobmanager import JobManager

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    reference = args.kind == "reference"
    tracer = None
    if args.kind == "traced":
        tracer = layers.Tracer()
        layers.install(tracer)

    # The end of set-up is the moment the job is deployed.  After it, the
    # run loop asks the job manager once per kernel event whether the job
    # has finished; every TICK_EVERY asks the wall clock is read, cutting
    # the run into chunks of identical work across samples of one seed.
    marks = {}
    ticks: list = []
    asks = 0
    deploy = JobManager.deploy
    job_finished = JobManager._job_finished

    def deploy_and_mark(jm):
        deploy(jm)
        marks["deployed"] = time.monotonic()

    def job_finished_and_tick(jm):
        nonlocal asks
        if asks % TICK_EVERY == 0:
            ticks.append(time.monotonic())
        asks += 1
        return job_finished(jm)

    JobManager.deploy = deploy_and_mark
    if args.kind == "timed":
        JobManager._job_finished = job_finished_and_tick

    error = None
    result = None
    try:
        result = run_experiment(
            workload.graph_fn(args.seed),
            workload.config(args.seed, reference=reference),
            kills=() if reference else workload.kills,
            limit=3600.0,
        )
    except Exception as exc:  # a crash or recovery stall is a failed run
        error = f"{type(exc).__name__}: {exc}"
    finished = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "workload": workload.name,
        "seed": args.seed,
        "kind": args.kind,
        "seeded_input": workload.seeded_input,
        "error": error,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if "deployed" in marks:
        out["setup_s"] = marks["deployed"] - args.started
        out["run_wall_s"] = finished - marks["deployed"]
        bounds = [marks["deployed"]] + ticks + [finished]
        out["chunks_s"] = [b - a for a, b in zip(bounds, bounds[1:])]
    if result is not None:
        values = result.output_values()
        if reference:
            out["outputs"] = len(values)
            out["counts"] = Counter(repr(workload.identity(v)) for v in values)
        else:
            out.update(measure(workload, result, values, args.reference))
            out["sim_events"] = result.jm.env._seq - len(result.jm.env._queue)
    if tracer is not None and result is not None:
        out["per_layer"] = layers.layer_metrics(tracer, workload.source_records)
        if args.spans:
            tracer.write_spans(args.spans)
    if args.kind == "timed":
        out["calibration_s"] = calibrate()
        if "run_wall_s" in out:
            out["wall_over_calibration"] = out["run_wall_s"] / out["calibration_s"]
    Path(args.out).write_text(json.dumps(out))
    return 0


def measure(workload, result, values, reference_path):
    """End-to-end quantities of one run, checked against the reference."""
    reference = Counter(json.loads(Path(reference_path).read_text())["counts"])
    got = Counter(repr(workload.identity(v)) for v in values)
    lost = sum((reference - got).values())
    duplicates = sum((got - reference).values())
    latencies = sorted(p.latency * 1000.0 for p in result.latencies)
    tail = latency_tail(latencies)
    recoveries = [result.recovery_time_after(i) for i in range(len(result.failures))]
    failed_reason = None
    if lost:
        failed_reason = f"lost {lost} reference records"
    elif duplicates and workload.exactly_once:
        failed_reason = f"duplicated {duplicates} records on an exactly-once workload"
    elif len(result.failures) != len(workload.kills):
        failed_reason = (
            f"{len(result.failures)} of {len(workload.kills)} kills landed"
        )
    elif any(r is None for r in recoveries):
        failed_reason = "a failure has no recovery-time sample"
    out = {
        "outputs": len(values),
        "sink_sha256": hashlib.sha256(
            "\n".join(repr(v) for v in values).encode()
        ).hexdigest(),
        "lost": lost,
        "duplicates": duplicates,
        "failed_reason": failed_reason,
        "source_records": workload.source_records,
        "sim_duration_s": result.duration,
        "sim_ingest_rps": workload.source_records / result.duration,
        "latency_samples": len(latencies),
        "sim_latency_p50_ms": percentile(latencies, 50) if latencies else None,
        "sim_latency_tail_ms": tail[2] if tail else None,
        "tail_percentile": tail[0] if tail else None,
        "tail_beyond": tail[1] if tail else 0,
        "failures": len(result.failures),
        "sim_recovery_s": max(recoveries) if recoveries else None,
    }
    return out


if __name__ == "__main__":
    sys.exit(main())
