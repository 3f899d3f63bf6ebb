"""Command-line interface: run the paper's experiments from a shell.

    python -m repro fig5 [--queries Q1,Q5] [--events 6000]
    python -m repro fig6-single [--query Q3] [--victim 'join[0]']
    python -m repro fig6-multi [--concurrent]
    python -m repro trace [--mode clonos|flink|both] [--out DIR] [--check]
    python -m repro memory
    python -m repro table1
    python -m repro bench [--suite NAME ...] [--json BENCH_perf.json] [--baseline PATH] [--golden-only]
    python -m repro profile [SUITE] [--top N] [--json]
    python -m repro lint [all | q5 | examples | path/to/file.py ...] [--strict]
    python -m repro verify-static [--json] [--bench BENCH_static.json] [DIR ...]
    python -m repro sanitize [all | quickstart | q3 ...]
    python -m repro chaos [--seeds 0:20 | --seed 9] [--max-faults 4]
    python -m repro audit [--inject K] [--soak | --seeds 0:8]
    python -m repro transparency [--topologies pair-p1,...] [--json PATH]
    python -m repro scenarios [--list | --only NAMES] [--json PATH]

Every experiment subcommand prints the reproduced table/series of the
corresponding figure; see EXPERIMENTS.md for the mapping to the paper.
``lint`` runs the NDLint static pass, ``verify-static`` the interprocedural
causal-coverage analyzer (ND201–ND210), and ``sanitize`` the double-run
determinism sanitizer (see README, "Verifying your pipeline is causally
loggable").  Determinism-tooling verbs share one exit-code convention:
0 clean, 1 findings, 2 internal/usage error.  ``chaos`` soaks randomised fault plans against the recovery
protocol and verdicts each run (see README, "Chaos testing the recovery
protocol").  ``audit`` sweeps every stored artifact and verifies its
content fingerprint — clean sweep exits 0; ``--inject K`` self-tests the
sweep against seeded corruption; ``--soak`` runs corruption fault plans
against the validated recovery ladder (see README, "Artifact integrity").
``transparency`` enumerates every failure point on small topologies and
asserts the recovered output is observationally equivalent to the
failure-free baseline — any silent divergence exits 1 (see README,
"Failure transparency as a checkable property").  ``scenarios`` runs the
production incident pack: named, declarative fault schedules with
per-scenario machine-checked verdicts — any failed verdict exits 1 (see
README, "The production incident scenario pack").
``trace`` records a fig6-style failure run on the causal event bus, exports
JSONL + Chrome-trace/Perfetto JSON, and prints each recovery incident's
per-phase breakdown plus the sim profiler's wall-clock hot spots (see
README, "Observability").  ``bench`` times the named perf suites and checks
the golden determinism digests (see ``repro.bench``); ``profile`` runs one
suite under the sim-aware profiler and prints its wall-clock hot spots.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path
from typing import List, Optional

from repro.harness.figures import (
    fig5_overhead,
    fig6_multi_failures,
    fig6_single_failure,
    latency_overhead,
    memory_spill_study,
    table1_assumptions,
)
from repro.harness.reporters import render_series, render_table
from repro.nexmark.queries import QUERIES


def _cmd_fig5(args) -> int:
    queries = (
        tuple(q.strip().upper() for q in args.queries.split(","))
        if args.queries
        else tuple(sorted(QUERIES, key=lambda q: int(q[1:])))
    )
    unknown = [q for q in queries if q not in QUERIES]
    if unknown:
        print(f"unknown queries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    rows = fig5_overhead(queries=queries, events_per_partition=args.events)
    print("Figure 5: relative throughput vs vanilla Flink")
    print(
        render_table(
            ["query", "flink rec/s", "clonos DSD=1", "clonos DSD=Full"],
            [
                (r.query, f"{r.flink_rate:.0f}", f"{r.rel_dsd1:.3f}", f"{r.rel_full:.3f}")
                for r in rows
            ],
        )
    )
    lat = latency_overhead(query=queries[0], events_per_partition=args.events)
    print()
    print(
        render_table(
            ["latency (" + queries[0] + ")", "p50 ms", "p99 ms"],
            [
                ("flink", f"{lat.flink_p50 * 1e3:.2f}", f"{lat.flink_p99 * 1e3:.2f}"),
                ("clonos DSD=1", f"{lat.dsd1_p50 * 1e3:.2f}", f"{lat.dsd1_p99 * 1e3:.2f}"),
                ("clonos Full", f"{lat.full_p50 * 1e3:.2f}", f"{lat.full_p99 * 1e3:.2f}"),
            ],
        )
    )
    return 0


def _cmd_fig6_single(args) -> int:
    runs = fig6_single_failure(
        query=args.query,
        victim=args.victim,
        events_per_partition=args.events,
        rate=args.rate,
        kill_at=args.kill_at,
    )
    for label, run in runs.items():
        recovery = run.recovery_time
        print(f"\n=== {label} ===")
        print(
            "recovery time:",
            f"{recovery:.2f}s" if recovery is not None else "n/a",
        )
        print(render_series("output rate", run.throughput_series()))
    return 0


def _cmd_fig6_multi(args) -> int:
    runs = fig6_multi_failures(concurrent=args.concurrent)
    flavour = "concurrent" if args.concurrent else "staggered"
    print(f"three {flavour} failures on the synthetic chain")
    for label, run in runs.items():
        recovery = run.recovery_time
        print(f"\n=== {label} ===")
        print(
            "recovery time:",
            f"{recovery:.2f}s" if recovery is not None else "n/a",
        )
        print(render_series("output rate", run.throughput_series()))
    return 0


def _cmd_trace(args) -> int:
    """Record a fig6-style failure run with tracing, export, summarize."""
    from repro.metrics.collectors import recovery_time
    from repro.trace import (
        merge_profiles,
        profiling,
        timeline_of,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.trace.export import chrome_trace

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    wanted = ("clonos", "flink") if args.mode == "both" else (args.mode,)
    if args.profile:
        with profiling() as profilers:
            runs = fig6_single_failure(
                query=args.query,
                victim=args.victim,
                events_per_partition=args.events,
                rate=args.rate,
                kill_at=args.kill_at,
                checkpoint_interval=args.checkpoint_interval,
            )
    else:
        profilers = []
        runs = fig6_single_failure(
            query=args.query,
            victim=args.victim,
            events_per_partition=args.events,
            rate=args.rate,
            kill_at=args.kill_at,
            checkpoint_interval=args.checkpoint_interval,
        )

    failures = []
    for label in wanted:
        run = runs[label]
        timeline = timeline_of(run.result)
        trace = run.result.jm.trace
        document = chrome_trace(
            trace,
            timeline,
            job_name=f"fig6-{args.query}-{label}",
            extra_metadata={
                "query": args.query,
                "mode": label,
                "victim": args.victim,
                "kill_at": args.kill_at,
            },
        )
        stem = f"fig6-{args.query}-{label}"
        jsonl_path = write_jsonl(out_dir / f"{stem}.jsonl", trace)
        chrome_path = write_chrome_trace(out_dir / f"{stem}.chrome.json", document)
        problems = validate_chrome_trace(document)
        if problems:
            failures.append(f"{label}: invalid Chrome trace: {problems[:3]}")

        measured = recovery_time(run.result.latencies, run.failure_time)
        print(f"\n=== {label} ===")
        print(f"events: {len(trace)}  exported: {jsonl_path}, {chrome_path}")
        print(
            "metrics.collectors recovery time:",
            f"{measured:.3f}s" if measured is not None else "n/a",
        )
        for incident in timeline.incidents:
            totals = incident.phase_totals()
            print(
                f"incident {incident.index}: victim={incident.victim} "
                f"failed at {incident.failure_time:.2f}s, end-to-end "
                f"{incident.end_to_end:.3f}s ({incident.end_source}), "
                f"{incident.named_phase_count()} named phases, "
                f"retries={incident.retries}"
            )
            print(
                render_table(
                    ["phase", "seconds", "share"],
                    [
                        (
                            name,
                            f"{dur:.4f}",
                            f"{dur / incident.end_to_end * 100.0:.1f}%"
                            if incident.end_to_end > 0
                            else "-",
                        )
                        for name, dur in totals.items()
                    ],
                )
            )
            if args.check:
                if incident.named_phase_count() < 5:
                    failures.append(
                        f"{label}: incident {incident.index} has only "
                        f"{incident.named_phase_count()} named phases"
                    )
                if (
                    incident.end_source == "latency-envelope"
                    and measured is not None
                    and measured > 0
                    and abs(incident.phase_sum() - measured) > 0.01 * measured
                ):
                    failures.append(
                        f"{label}: incident {incident.index} phase sum "
                        f"{incident.phase_sum():.4f}s deviates >1% from "
                        f"measured recovery {measured:.4f}s"
                    )
        if args.check and not timeline.incidents:
            failures.append(f"{label}: no recovery incidents reconstructed")

    if profilers:
        print()
        print(merge_profiles(profilers).report(top=args.top))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if args.check:
        print("\ntrace check: OK")
    return 0


def _cmd_memory(args) -> int:
    rows = memory_spill_study(duration=args.duration)
    print("Section 7.5: spill policies x pool sizes")
    print(
        render_table(
            ["policy", "pool KB", "ingest rec/s", "peak bufs", "spilled"],
            [
                (r.policy, r.pool_kbytes, f"{r.rate:.0f}", r.peak_memory_buffers,
                 r.spilled_buffers)
                for r in rows
            ],
        )
    )
    return 0


def _cmd_table1(args) -> int:
    cells = table1_assumptions(n_records=args.events)
    print("Table 1 (operationalised): consistency after recovering a failure")
    print(
        render_table(
            ["scheme", "operator", "lost", "dup", "inconsistent", "exactly-once"],
            [
                (
                    c.mode,
                    "deterministic" if c.deterministic else "nondeterministic",
                    c.lost, c.duplicated, c.inconsistent,
                    "yes" if c.exactly_once else "NO",
                )
                for c in cells
            ],
        )
    )
    return 0


# -- determinism tooling ------------------------------------------------------

#: Examples shipped at the repository root; linted as whole files and
#: double-run (entry point per name) by ``sanitize``.
_EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
_EXAMPLE_NAMES = ("quickstart", "fraud_detection", "exactly_once_output",
                  "nexmark_hot_items")


class _LintProbeService:
    """Stand-in for Q13's external side-input service during graph lint."""

    def get_now(self, key):
        return key


def _load_example(name: str):
    path = _EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _query_graph(name: str):
    """Build query ``name``'s graph against a fresh log (for linting)."""
    from repro.external.kafka import DurableLog
    from repro.nexmark.queries import QUERIES

    log = DurableLog()
    external = _LintProbeService() if name == "Q13" else None
    return QUERIES[name](log, external=external)


def _cmd_bench(args) -> int:
    """Time the perf suites and check the golden determinism digests.

    Exit codes: 0 all suites ran and goldens match; 1 golden drift (a
    determinism regression — the hard failure CI gates on).
    """
    import json as json_module

    from repro.bench import SUITES, check_goldens, perf_payload, run_suite

    print("golden determinism check...", flush=True)
    golden_failures = check_goldens()
    for failure in golden_failures:
        print(f"GOLDEN DRIFT: {failure}", file=sys.stderr)
    if not golden_failures:
        print("golden digests: OK (schedule, sink, trace byte-identical)")
    if args.golden_only:
        return 1 if golden_failures else 0

    names = args.suites or list(SUITES)
    results = []
    for name in names:
        print(f"suite {name}: running...", flush=True)
        result = run_suite(name)
        print(
            f"suite {name}: {result.wall_clock_s:.2f}s wall, "
            f"{result.records_per_wall_second:,.0f} simulated records/s, "
            f"{result.kernel_events:,} kernel events, "
            f"{result.source_polls:,} source polls"
        )
        results.append(result)
    same_host = (
        json_module.loads(Path(args.baseline).read_text()) if args.baseline else None
    )
    payload = perf_payload(results, golden_failures, same_host)
    total = payload["total_wall_clock_s"]
    speedup = payload.get("speedup_vs_baseline")
    line = f"total: {total}s"
    if speedup is not None:
        line += f" ({speedup}x vs pre-optimisation baseline)"
    print(line)
    if args.json:
        Path(args.json).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"bench written: {args.json}", file=sys.stderr)
    return 1 if golden_failures else 0


def _cmd_profile(args) -> int:
    """Run one perf suite under the sim-aware profiler; print hot spots."""
    import json as json_module
    import time as time_module

    from repro.bench import SUITES
    from repro.trace import merge_profiles, profiling

    spec = SUITES[args.suite]
    started = time_module.perf_counter()
    with profiling() as profilers:
        spec.runner()
    wall = time_module.perf_counter() - started
    merged = merge_profiles(profilers)
    if args.json:
        payload = {
            "bench": "profile",
            "suite": spec.name,
            "wall_clock_s": round(wall, 3),
            "kernel_steps": merged.steps,
            "attributed_ms": round(merged.total_ms(), 1),
            "gc_tracked_at_end": merged.gc_tracked,
            "gc_collect_s": round(merged.gc_collect_ns / 1e9, 3),
            "rows": [
                {
                    "where": row.name,
                    "calls": row.calls,
                    "total_ms": round(row.total_ms, 2),
                    "mean_us": round(row.mean_us, 1),
                }
                for row in merged.rows(args.top)
            ],
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"suite {spec.name}: {wall:.2f}s wall ({spec.description})")
        print(merged.report(top=args.top))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import dedupe_reports, lint_file, lint_graph
    from repro.nexmark.queries import QUERIES

    targets = [t for t in (args.targets or ["all"])]
    reports = []
    try:
        for raw in targets:
            target = raw.strip()
            upper = target.upper()
            if target == "all":
                reports.extend(
                    lint_file(_EXAMPLES_DIR / f"{name}.py") for name in _EXAMPLE_NAMES
                )
                reports.extend(lint_graph(_query_graph(q)) for q in sorted(QUERIES))
            elif target == "examples":
                reports.extend(
                    lint_file(_EXAMPLES_DIR / f"{name}.py") for name in _EXAMPLE_NAMES
                )
            elif upper in QUERIES:
                reports.append(lint_graph(_query_graph(upper)))
            elif target.endswith(".py"):
                reports.append(lint_file(target))
            else:
                print(f"unknown lint target {target!r} "
                      f"(all | examples | Q1..Q14 | path/to/file.py)", file=sys.stderr)
                return 2
    except Exception as exc:  # internal error, not a finding: exit 2
        print(f"ndlint: internal error: {exc!r}", file=sys.stderr)
        return 2
    dedupe_reports(reports)
    failed = False
    for report in reports:
        print(report.summary())
        if report.findings:
            print(report.render())
        for target in report.unresolved:
            print(f"ndlint: cannot read source for {target!r}", file=sys.stderr)
        failed = failed or not report.ok(strict=args.strict) or bool(report.unresolved)
    n_err = sum(len(r.errors) for r in reports)
    n_warn = sum(len(r.warnings) for r in reports)
    print(f"\nndlint: {len(reports)} targets, {n_err} errors, {n_warn} warnings")
    return 1 if failed else 0


def _cmd_verify_static(args) -> int:
    """Interprocedural causal-coverage analysis (ND201–ND210) over a tree.

    Exit codes follow the determinism-tooling convention: 0 clean, 1
    findings (or parse errors in the scanned tree), 2 internal error.
    """
    import json as json_module

    from repro.analysis.causal import analyze_tree

    try:
        roots = [Path(p) if p is not None else None
                 for p in (args.roots or [None])]
        reports = []
        for root in roots:
            if root is not None and not root.is_dir():
                print(f"verify-static: not a directory: {root}", file=sys.stderr)
                return 2
            package = root.name if root is not None else "repro"
            reports.append(analyze_tree(root, package=package))
    except Exception as exc:
        print(f"verify-static: internal error: {exc!r}", file=sys.stderr)
        return 2
    for report in reports:
        print(report.to_json() if args.json else report.render())
    if args.bench:
        totals = {"findings": 0, "exempted": 0, "wall_clock_s": 0.0,
                  "modules": 0, "functions": 0}
        counts: dict = {}
        for report in reports:
            totals["findings"] += len(report.findings)
            totals["exempted"] += len(report.exempted)
            totals["wall_clock_s"] += report.stats.get("wall_clock_s", 0.0)
            totals["modules"] += int(report.stats.get("modules", 0))
            totals["functions"] += int(report.stats.get("functions", 0))
            for rule_id, n in report.counts().items():
                counts[rule_id] = counts.get(rule_id, 0) + n
        payload = {
            "bench": "verify-static",
            "roots": [r.root for r in reports],
            "ok": all(r.ok for r in reports),
            "counts_by_rule": dict(sorted(counts.items())),
            **totals,
            "wall_clock_s": round(totals["wall_clock_s"], 4),
        }
        Path(args.bench).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"bench written: {args.bench}", file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


def _sanitize_thunk(target: str):
    """Resolve a sanitize target to ``(label, zero-arg runnable)``."""
    if target == "quickstart":
        module = _load_example("quickstart")
        return "quickstart (with failure)", lambda: module.run(kill_the_counter=True)
    if target == "fraud_detection":
        from repro.config import FaultToleranceMode

        module = _load_example("fraud_detection")
        return "fraud_detection (CLONOS)", lambda: module.run(FaultToleranceMode.CLONOS)
    if target == "exactly_once_output":
        from repro.core.output import ExactlyOnceKafkaSink

        module = _load_example("exactly_once_output")
        return (
            "exactly_once_output (§5.5 sink)",
            lambda: module.run(lambda log: ExactlyOnceKafkaSink(log, "alerts")),
        )
    if target == "nexmark_hot_items":
        return _sanitize_thunk("Q5")
    upper = target.upper()
    from repro.nexmark.queries import QUERIES

    if upper in QUERIES:
        from repro.config import FaultToleranceMode
        from repro.harness.experiment import run_experiment
        from repro.harness.figures import experiment_config, nexmark_graph_fn

        config = experiment_config(FaultToleranceMode.CLONOS, None)
        graph_fn = nexmark_graph_fn(upper, 2, 2000, 2000.0)
        return (
            f"nexmark {upper} (CLONOS)",
            lambda: run_experiment(graph_fn, config, limit=3600),
        )
    return None


def _cmd_sanitize(args) -> int:
    from repro.analysis import double_run

    targets = list(args.targets or ["all"])
    if "all" in targets:
        targets = list(_EXAMPLE_NAMES[:-1]) + ["Q1", "Q3", "Q5", "Q8"]
    ok = True
    for target in targets:
        resolved = _sanitize_thunk(target)
        if resolved is None:
            print(f"unknown sanitize target {target!r} "
                  f"(all | {' | '.join(_EXAMPLE_NAMES)} | Q1..Q14)", file=sys.stderr)
            return 2
        label, thunk = resolved
        report = double_run(thunk, label=label, keep_trace=args.trace)
        print(report.render())
        ok = ok and report.ok
    return 0 if ok else 1


def _parse_seeds(args) -> List[int]:
    if args.seed is not None:
        return [args.seed]
    raw = args.seeds
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(s) for s in raw.split(",")]


def _cmd_chaos(args) -> int:
    from repro.chaos import chaos_soak
    from repro.metrics.collectors import recovery_summary

    seeds = _parse_seeds(args)
    results = chaos_soak(
        seeds,
        max_faults=args.max_faults,
        n_records=args.events,
        limit=args.limit,
    )
    rows = []
    violations = 0
    for r in results:
        rows.append(
            (
                r.seed,
                r.verdict,
                f"{r.duration:.2f}s",
                ",".join(r.chaos_summary["kinds"]) or "-",
                r.missing,
                r.duplicated,
                r.chaos_summary["control_plane_drops"],
            )
        )
        violations += r.verdict == "violation"
        if args.verbose or r.verdict == "violation":
            print(f"--- seed {r.seed}: {r.verdict}")
            for when, kind, who in r.recovery_events:
                if not kind.startswith("suspected"):
                    print(f"    t={when:.4f} {kind} {who}")
            print("   ", recovery_summary(r.recovery_events))
    print("chaos soak: randomised fault plans vs the recovery protocol")
    print(
        render_table(
            ["seed", "verdict", "dur", "faults", "lost", "dup", "rpc drops"],
            rows,
        )
    )
    n_eo = sum(r.verdict == "exactly-once" for r in results)
    n_deg = sum(r.verdict == "degraded:global_rollback" for r in results)
    print(
        f"\n{len(results)} runs: {n_eo} exactly-once, {n_deg} degraded, "
        f"{violations} violations"
    )
    return 1 if violations else 0


def _cmd_scenarios(args) -> int:
    import json

    from repro.errors import ScenarioError
    from repro.metrics.collectors import scenario_summary
    from repro.scenarios import SCENARIOS, run_pack

    if args.list:
        for scenario in SCENARIOS:
            print(f"{scenario.name:28s} {scenario.description}")
        return 0

    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
    try:
        results = run_pack(SCENARIOS, only=only, seed=args.seed)
    except ScenarioError as exc:
        print(f"scenarios: {exc}", file=sys.stderr)
        return 2

    print("scenario pack: named production incidents vs their verdicts")
    rows = []
    for r in results:
        failed_checks = ",".join(
            name for name, status in r.checks.items() if status != "ok"
        )
        rows.append(
            (
                r.name,
                r.verdict,
                f"{r.duration:.2f}s",
                f"{r.duration_overhead:.2f}x",
                r.missing,
                r.duplicated,
                r.degradations,
                "-" if r.recovery_time is None else f"{r.recovery_time:.3f}s",
                failed_checks or "-",
            )
        )
        if args.verbose or not r.ok:
            print(f"--- {r.name}: {r.verdict}")
            for name, status in r.checks.items():
                print(f"    {name}: {status}")
            if args.verbose:
                for when, kind, who in r.recovery_events:
                    if not kind.startswith("suspected"):
                        print(f"    t={when:.4f} {kind} {who}")
    print(
        render_table(
            ["scenario", "verdict", "dur", "overhead", "lost", "dup",
             "degr", "recovery", "failed checks"],
            rows,
        )
    )
    summary = scenario_summary(results)
    print(
        f"\n{summary['scenarios']} scenarios: {summary['passed']} passed, "
        f"{len(summary['failed'])} failed"
        + (f" ({', '.join(summary['failed'])})" if summary["failed"] else "")
    )
    if args.json:
        payload = {
            "summary": summary,
            "scenarios": [r.to_dict() for r in results],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 1 if summary["failed"] else 0


def _audit_matches(kind: str, detail: str, violations) -> bool:
    """Did the sweep flag the artifact this injection damaged?"""
    names = [name for (_kind, name, _detail) in violations]
    if kind in ("blob_corruption", "torn_write"):
        task, cid = detail.rsplit("@", 1)
        return any(detail in n or f"chk/{task}/{cid}" in n for n in names)
    if kind == "standby_image":
        return any(
            vkind == "standby-image" and name == detail
            for (vkind, name, _d) in violations
        )
    if kind == "buffer_bitflip":
        artifact = detail.rsplit(":", 1)[0]  # strip the mutation suffix
        return any(artifact in n for n in names)
    # determinant_truncation: "holder:log@epochN:-k" vs
    # "holder:stored[victim]:log@epochN"
    holder, rest = detail.split(":", 1)
    log_at_epoch = rest.rsplit(":", 1)[0]
    return any(n.startswith(holder) and log_at_epoch in n for n in names)


def _audit_run(args):
    """Deploy the synthetic chain and run it to mid-flight, so every artifact
    class is populated: retained checkpoints, standby images, logged
    in-flight buffers, determinant replicas."""
    from repro.chaos.soak import fast_chaos_config
    from repro.external.kafka import DurableLog
    from repro.runtime.jobmanager import JobManager
    from repro.sim.core import Environment
    from repro.workloads.synthetic import synthetic_chain

    config = fast_chaos_config(seed=args.seed or 0, checkpoint_interval=0.25)
    env = Environment()
    log = DurableLog()
    graph = synthetic_chain(
        log,
        depth=3,
        parallelism=2,
        rate_per_partition=1000.0,
        total_per_partition=args.events,
        state_bytes_per_task=8192,
        num_keys=16,
        nondeterministic=True,
        in_topic="audit-in",
        out_topic="audit-out",
        exactly_once_sink=True,
    )
    jm = JobManager(env, graph, config)
    jm.deploy()
    env.run(until=args.events / 1000.0 * 0.6)
    return jm


def _cmd_audit(args) -> int:
    import random as random_module

    from repro.integrity.audit import audit_job
    from repro.integrity.corruption import random_corruptions
    from repro.sim.rng import derive_seed

    if args.soak or args.seeds is not None:
        return _cmd_audit_soak(args)
    jm = _audit_run(args)
    injected = []
    if args.inject:
        rng = random_module.Random(derive_seed(args.seed or 0, "audit-inject"))
        injected = random_corruptions(jm, args.inject, rng)
        for kind, detail in injected:
            print(f"injected: {kind} {detail}")
    report = audit_job(jm)
    print(report.render())
    if args.inject:
        missed = [
            (kind, detail)
            for kind, detail in injected
            if not _audit_matches(kind, detail, report.violations)
        ]
        for kind, detail in missed:
            print(f"MISSED: {kind} {detail}", file=sys.stderr)
        print(
            f"audit self-test: injected={len(injected)} "
            f"detected={len(injected) - len(missed)}"
        )
        return 0 if injected and not missed else 1
    return 0 if report.ok else 1


def _cmd_audit_soak(args) -> int:
    from repro.integrity.soak import integrity_soak

    seeds = _parse_seeds(args) if (args.seeds or args.seed is not None) else list(range(8))
    results = integrity_soak(seeds, n_records=args.events)
    rows = []
    violations = 0
    for r in results:
        rows.append(
            (
                r.seed,
                r.verdict,
                r.corruptions_injected,
                r.integrity_summary.get("total_failed", 0),
                len(r.audit.violations),
            )
        )
        violations += r.verdict == "violation"
        if r.verdict == "violation":
            print(f"--- seed {r.seed}: {r.verdict}")
            for when, kind, who in r.chaos.recovery_events:
                if not kind.startswith("suspected"):
                    print(f"    t={when:.4f} {kind} {who}")
    print("integrity soak: corruption fault plans vs the validation layer")
    print(
        render_table(
            ["seed", "verdict", "injected", "flagged in run", "flagged by audit"],
            rows,
        )
    )
    n_eo = sum(r.verdict == "exactly-once" for r in results)
    n_deg = sum(r.verdict == "degraded:global_rollback" for r in results)
    print(
        f"\n{len(results)} runs: {n_eo} exactly-once, {n_deg} degraded, "
        f"{violations} violations"
    )
    return 1 if violations else 0


def _cmd_transparency(args) -> int:
    import json

    from repro.transparency import (
        default_topologies,
        run_transparency_suite,
        suite_payload,
    )

    topologies = default_topologies()
    if args.topologies:
        wanted = {name.strip() for name in args.topologies.split(",")}
        known = {t.name for t in topologies}
        unknown = wanted - known
        if unknown:
            print(
                f"unknown topologies: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
        topologies = [t for t in topologies if t.name in wanted]

    def on_case(case):
        if args.verbose or not case.ok:
            print(
                f"    {case.point.label:32s} {case.outcome:24s} "
                f"miss={case.missing} dup={case.duplicated} "
                f"dur={case.duration:.2f}s"
            )

    from repro.errors import JobError

    try:
        reports = run_transparency_suite(
            topologies,
            boundaries=args.boundaries,
            compound=not args.no_compound,
            limit=args.limit,
            on_case=on_case,
        )
    except JobError as exc:
        print(f"transparency: internal error: {exc}", file=sys.stderr)
        return 2

    print("failure transparency: exhaustive failure-point exploration")
    rows = [
        (
            r.topology,
            r.operators,
            r.tasks,
            len(r.cases),
            r.transparent,
            r.announced,
            r.skipped,
            len(r.violations),
        )
        for r in reports
    ]
    print(
        render_table(
            ["topology", "ops", "tasks", "cases", "transparent",
             "announced", "skipped", "violations"],
            rows,
        )
    )
    payload = suite_payload(reports)
    for case in payload["violating_cases"]:
        print(
            f"VIOLATION {case['topology']} {case['case']}: {case['outcome']} "
            f"(missing={case['missing']} dup={case['duplicated']})",
            file=sys.stderr,
        )
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    total = payload["cases_total"]
    print(
        f"\n{total} cases: {payload['transparent']} transparent, "
        f"{payload['announced_degradation']} announced degradations, "
        f"{payload['skipped']} skipped, {payload['violations']} violations"
    )
    return 1 if payload["violations"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clonos reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p5 = sub.add_parser("fig5", help="overhead under normal operation")
    p5.add_argument("--queries", help="comma-separated subset, e.g. Q1,Q5,Q7")
    p5.add_argument("--events", type=int, default=6000,
                    help="events per source partition")
    p5.set_defaults(fn=_cmd_fig5)

    p6 = sub.add_parser("fig6-single", help="single-operator failure")
    p6.add_argument("--query", default="Q3", choices=("Q3", "Q8"))
    p6.add_argument("--victim", default="join[0]")
    p6.add_argument("--events", type=int, default=36000)
    p6.add_argument("--rate", type=float, default=6000.0)
    p6.add_argument("--kill-at", type=float, default=4.0, dest="kill_at")
    p6.set_defaults(fn=_cmd_fig6_single)

    p6m = sub.add_parser("fig6-multi", help="multiple/concurrent failures")
    p6m.add_argument("--concurrent", action="store_true")
    p6m.set_defaults(fn=_cmd_fig6_multi)

    ptr = sub.add_parser(
        "trace",
        help="record a fig6-style failure run with causal tracing; export "
             "JSONL + Chrome-trace JSON and print the per-phase breakdown",
    )
    ptr.add_argument("--query", default="Q3", choices=("Q3", "Q8"))
    ptr.add_argument("--victim", default="join[0]")
    ptr.add_argument("--events", type=int, default=36000)
    ptr.add_argument("--rate", type=float, default=6000.0)
    ptr.add_argument("--kill-at", type=float, default=4.0, dest="kill_at")
    ptr.add_argument("--checkpoint-interval", type=float, default=2.0,
                     dest="checkpoint_interval")
    ptr.add_argument("--mode", default="clonos",
                     choices=("clonos", "flink", "both"),
                     help="which arm(s) to export (default clonos)")
    ptr.add_argument("--out", default="trace_out",
                     help="output directory for exported traces")
    ptr.add_argument("--no-profile", dest="profile", action="store_false",
                     help="skip the wall-clock sim profiler")
    ptr.add_argument("--top", type=int, default=10,
                     help="profiler rows to print (default 10)")
    ptr.add_argument("--check", action="store_true",
                     help="exit 1 unless every incident has >=5 named phases "
                          "whose durations sum to within 1%% of the measured "
                          "recovery time")
    ptr.set_defaults(fn=_cmd_trace)

    pm = sub.add_parser("memory", help="spill-policy/memory study")
    pm.add_argument("--duration", type=float, default=12.0)
    pm.set_defaults(fn=_cmd_memory)

    pt = sub.add_parser("table1", help="consistency vs determinism matrix")
    pt.add_argument("--events", type=int, default=4000)
    pt.set_defaults(fn=_cmd_table1)

    pb = sub.add_parser(
        "bench", help="perf suites + golden determinism digests"
    )
    pb.add_argument(
        "--suite",
        dest="suites",
        action="append",
        choices=["fig5", "fig6-single", "fig6-multi"],
        help="suite to run (repeatable; default: all)",
    )
    pb.add_argument(
        "--json", metavar="PATH", help="write results as JSON (e.g. BENCH_perf.json)"
    )
    pb.add_argument(
        "--baseline",
        metavar="PATH",
        help="a BENCH json of another commit run on this host, recorded "
        "beside each suite as same_host_baseline",
    )
    pb.add_argument(
        "--golden-only",
        action="store_true",
        help="only check the golden digests (the fast CI determinism gate)",
    )
    pb.set_defaults(fn=_cmd_bench)

    pp = sub.add_parser(
        "profile", help="run one perf suite under the sim-aware profiler"
    )
    pp.add_argument(
        "suite",
        nargs="?",
        default="fig5",
        choices=["fig5", "fig6-single", "fig6-multi"],
        help="suite to profile (default: fig5)",
    )
    pp.add_argument("--top", type=int, default=15, help="rows to show")
    pp.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    pp.set_defaults(fn=_cmd_profile)

    pl = sub.add_parser("lint", help="NDLint: static nondeterminism check")
    pl.add_argument("targets", nargs="*",
                    help="all | examples | Q1..Q14 | path/to/file.py (default: all)")
    pl.add_argument("--strict", action="store_true",
                    help="treat warnings as failures too")
    pl.set_defaults(fn=_cmd_lint)

    pv = sub.add_parser(
        "verify-static",
        help="interprocedural causal-coverage analysis: ND201 (ND->state), "
             "ND202 (ND->output), ND203 (dead determinant), ND210 (phase "
             "protocol)",
    )
    pv.add_argument("roots", nargs="*", metavar="DIR",
                    help="source tree(s) to scan (default: the installed "
                         "src/repro tree)")
    pv.add_argument("--json", action="store_true",
                    help="emit the machine-readable JSON report")
    pv.add_argument("--bench", metavar="PATH", default=None,
                    help="also write analyzer wall-clock + finding counts "
                         "as JSON (e.g. BENCH_static.json)")
    pv.set_defaults(fn=_cmd_verify_static)

    ps = sub.add_parser(
        "sanitize", help="double-run determinism sanitizer + protocol invariants"
    )
    ps.add_argument("targets", nargs="*",
                    help="all | quickstart | fraud_detection | exactly_once_output "
                         "| nexmark_hot_items | Q1..Q14 (default: all)")
    ps.add_argument("--no-trace", dest="trace", action="store_false",
                    help="skip the per-event trace (hash comparison only)")
    ps.set_defaults(fn=_cmd_sanitize)

    pc = sub.add_parser(
        "chaos", help="seeded chaos soak: random fault plans vs recovery"
    )
    pc.add_argument("--seeds", default="0:10",
                    help="range lo:hi or comma list (default 0:10)")
    pc.add_argument("--seed", type=int, default=None,
                    help="run exactly one seed (overrides --seeds)")
    pc.add_argument("--max-faults", type=int, default=4, dest="max_faults")
    pc.add_argument("--events", type=int, default=1200,
                    help="records per source partition")
    pc.add_argument("--limit", type=float, default=120.0,
                    help="simulated-seconds deadline per run")
    pc.add_argument("--verbose", action="store_true",
                    help="print every run's recovery events")
    pc.set_defaults(fn=_cmd_chaos)

    pa = sub.add_parser(
        "audit",
        help="sweep every stored artifact (checkpoints, logs, standby "
             "images) and verify its fingerprint",
    )
    pa.add_argument("--seed", type=int, default=None,
                    help="workload/injection seed (default 0); with --soak, "
                         "run exactly one soak seed")
    pa.add_argument("--inject", type=int, default=0, metavar="K",
                    help="self-test: corrupt K artifacts mid-flight and "
                         "require the sweep to flag every one")
    pa.add_argument("--soak", action="store_true",
                    help="run the corruption-chaos soak instead of a single "
                         "sweep (validated recovery + closing audit per seed)")
    pa.add_argument("--seeds", default=None,
                    help="soak seed range lo:hi or comma list (implies --soak; "
                         "default 0:8)")
    pa.add_argument("--events", type=int, default=1200,
                    help="records per source partition")
    pa.set_defaults(fn=_cmd_audit)

    pf = sub.add_parser(
        "transparency",
        help="exhaustive failure-point exploration: assert observational "
             "equivalence of recovered output on small topologies",
    )
    pf.add_argument("--topologies", default=None,
                    help="comma list restricting the default topology set "
                         "(pair-p1, chain3-p1, chain4-p1, chain3-p2)")
    pf.add_argument("--boundaries", type=int, default=2,
                    help="epoch boundaries probed per task (default 2)")
    pf.add_argument("--no-compound", action="store_true", dest="no_compound",
                    help="skip the compound (overlapping-recovery) kill pairs")
    pf.add_argument("--limit", type=float, default=60.0,
                    help="simulated-seconds deadline per case")
    pf.add_argument("--json", default=None, metavar="PATH",
                    help="write the suite payload (BENCH_transparency.json)")
    pf.add_argument("--verbose", action="store_true",
                    help="print every case, not just violations")
    pf.set_defaults(fn=_cmd_transparency)

    psc = sub.add_parser(
        "scenarios",
        help="production incident scenario pack: named fault schedules "
             "with per-scenario machine-checked verdicts",
    )
    psc.add_argument("--list", action="store_true",
                     help="list the named scenarios and exit")
    psc.add_argument("--only", default=None, metavar="NAMES",
                     help="comma list of scenario names to run")
    psc.add_argument("--seed", type=int, default=None,
                     help="override every scenario's seed (default: "
                          "each scenario's own)")
    psc.add_argument("--json", default=None, metavar="PATH",
                     help="write the pack payload (BENCH_scenarios.json)")
    psc.add_argument("--verbose", action="store_true",
                     help="print per-check status and recovery events")
    psc.set_defaults(fn=_cmd_scenarios)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
