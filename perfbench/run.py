"""The repo benchmark: simulator speed and simulated-Clonos fidelity.

Usage (from the repository root)::

    python3 perfbench/run.py --workload q3-rollback --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--trace 0`` runs untraced samples, each a fresh ``worker.py`` process,
until ``--seconds`` have passed (at least ``MIN_SAMPLES``), and reports the
end-to-end metrics: medians of the host-dependent ones, and the simulated
ones, which must repeat exactly across samples of one seed.  ``--trace 1``
does the same and then runs two traced samples for the per-layer metrics,
checking that tracing is passive and that the deterministic counts repeat.

Every sample's sink output is compared, as a multiset, with a failure-free
reference run of the same seed, computed once untimed and cached under
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a human-readable table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import DETERMINISTIC_COUNTS, PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("q5-saturated", "chain-3-failures", "q3-rollback")
#: ``--seed`` default, used while tuning; claims are confirmed on HELD_OUT_SEED.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
MIN_SAMPLES = 3
#: Wall limit of one worker process.
WORKER_TIMEOUT_S = 150.0

#: Every end-to-end metric the table prints: name -> unit.
END_TO_END = {
    "records_per_wall_s": "rec/s",
    "records_per_wall_s_median": "rec/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_ingest_rps": "rec/sim-s",
    "sim_latency_p50_ms": "sim-ms",
    "sim_latency_tail_ms": "sim-ms",
    "sim_recovery_s": "sim-s",
    "sim_duplicate_records": "records",
    "runs_failed": "share",
}
#: The subset reported in the final JSON line: defined and non-zero on
#: every workload (see README, "Why some metrics are table-only").
GATED = (
    "records_per_wall_s",
    "setup_s",
    "peak_rss_mib",
    "sim_ingest_rps",
)
#: Simulated quantities: a function of the seed alone.
DETERMINISTIC = (
    "sim_ingest_rps",
    "sim_latency_p50_ms",
    "sim_latency_tail_ms",
    "tail_percentile",
    "sim_recovery_s",
    "duplicates",
    "lost",
    "outputs",
    "sink_sha256",
    "sim_events",
)


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def run_worker(workload: str, seed: int, kind: str, tag: str,
               extra: Optional[List[str]] = None) -> dict:
    out_path = OUT / f"{tag}.json"
    if out_path.exists():
        out_path.unlink()
    started = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--kind", kind,
        "--started", repr(started), "--out", str(out_path),
    ] + (extra or [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{kind} worker for {workload} timed out") from exc
    if proc.returncode != 0 or not out_path.exists():
        raise BenchError(
            f"{kind} worker for {workload} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(out_path.read_text())


def code_digest() -> str:
    """Digest of the program and the workload definitions: a cached
    reference is reused only by the code that computed it."""
    digest = hashlib.sha256()
    for path in [HERE / "workloads.py"] + sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def reference_path(workload: str, seed: int) -> Path:
    """The cached failure-free reference output, computed if missing."""
    stem = f"ref-{workload}-seed{seed}-{code_digest()}"
    path = OUT / f"{stem}.json"
    if not path.exists():
        ref = run_worker(workload, seed, "reference", f"{stem}-tmp")
        if ref.get("error"):
            raise BenchError(f"reference run of {workload} failed: {ref['error']}")
        (OUT / f"{stem}-tmp.json").replace(path)
    return path


def sample_failure(sample: dict) -> Optional[str]:
    return sample.get("error") or sample.get("failed_reason")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All samples of one workload and seed, with their checks."""
    ref = reference_path(workload, seed)
    extra = ["--reference", str(ref)]
    timed: List[dict] = []
    deadline = time.monotonic() + seconds
    while len(timed) < MIN_SAMPLES or time.monotonic() < deadline:
        timed.append(run_worker(workload, seed, "timed",
                                f"sample-{workload}-seed{seed}", extra))
    traced: List[dict] = []
    if trace:
        for i in range(2):
            spans = OUT / f"spans-{workload}-seed{seed}-{i}.json.gz"
            traced.append(run_worker(
                workload, seed, "traced", f"traced-{workload}-seed{seed}-{i}",
                extra + ["--spans", str(spans)],
            ))
    return {"workload": workload, "seed": seed, "timed": timed, "traced": traced,
            "reference": str(ref.relative_to(ROOT))}


def check(run: dict) -> List[str]:
    """Cross-sample checks; each problem found is one message."""
    problems = []
    timed = [s for s in run["timed"] if not sample_failure(s)]
    traced = [s for s in run["traced"] if not sample_failure(s)]
    for key in DETERMINISTIC:
        seen = {json.dumps(s.get(key)) for s in timed}
        if len(seen) > 1:
            problems.append(f"{key} differs across samples of one seed: {sorted(seen)}")
    for s in traced:
        for key in ("sink_sha256", "sim_events"):
            if timed and s.get(key) != timed[0].get(key):
                problems.append(f"traced run changed {key}: tracing is not passive")
        if s["per_layer"]["sim.events"] != s["sim_events"]:
            problems.append("traced sim.events differs from the kernel's own count")
    if len(traced) == 2:
        first, second = (s["per_layer"] for s in traced)
        for key in DETERMINISTIC_COUNTS:
            if first[key] != second[key]:
                problems.append(
                    f"{key} did not repeat across traced runs: {first[key]} vs {second[key]}"
                )
    return problems


def chunked_wall(samples: List[dict]) -> Optional[float]:
    """Run wall time with host interference filtered out: the sum, over the
    run's chunks of identical work, of the fastest sample's time for each
    chunk.  None if the samples were not cut into the same chunks."""
    chunks = [s["chunks_s"] for s in samples]
    if not chunks or len({len(c) for c in chunks}) != 1:
        return None
    return sum(min(times) for times in zip(*chunks))


def summarize(run: dict) -> Dict[str, dict]:
    """Every end-to-end metric: value (or None for n/a), unit, sample count."""
    samples = run["timed"]
    ok = [s for s in samples if not sample_failure(s)]
    attempted = len(samples) + len(run["traced"])
    failed = sum(1 for s in samples + run["traced"] if sample_failure(s))

    def median(key: str) -> dict:
        values = [s[key] for s in ok if s.get(key) is not None]
        return {"value": statistics.median(values) if values else None, "n": len(values)}

    first = ok[0] if ok else {}
    wall = chunked_wall(ok)
    metrics = {
        "records_per_wall_s": {
            "value": first["source_records"] / wall if wall else None,
            "n": len(ok),
        },
        "records_per_wall_s_median": {
            "value": statistics.median(
                [s["source_records"] / s["run_wall_s"] for s in ok]
            ) if ok else None,
            "n": len(ok),
        },
        "setup_s": median("setup_s"),
        "peak_rss_mib": median("peak_rss_mib"),
    }
    for key in ("sim_ingest_rps", "sim_latency_p50_ms", "sim_latency_tail_ms",
                "sim_recovery_s"):
        metrics[key] = {"value": first.get(key), "n": len(ok)}
    metrics["sim_latency_p50_ms"]["n"] = first.get("latency_samples", 0)
    metrics["sim_latency_tail_ms"].update(
        n=first.get("latency_samples", 0),
        percentile=first.get("tail_percentile"),
        beyond=first.get("tail_beyond", 0),
    )
    metrics["sim_recovery_s"]["n"] = first.get("failures", 0)
    metrics["sim_duplicate_records"] = {"value": first.get("duplicates"), "n": len(ok)}
    metrics["runs_failed"] = {"value": failed / attempted, "n": attempted}
    for name, entry in metrics.items():
        entry["unit"] = END_TO_END[name]
    return metrics


def per_layer(run: dict) -> Optional[Dict[str, float]]:
    """The first traced run's layer metrics plus the tracing overhead; None
    unless every sample succeeded and every check passed."""
    samples = run["timed"] + run["traced"]
    if not run["traced"] or run["problems"] or any(sample_failure(s) for s in samples):
        return None
    traced_wall = statistics.median(s["run_wall_s"] for s in run["traced"])
    untraced_wall = statistics.median(s["run_wall_s"] for s in run["timed"])
    return dict(run["traced"][0]["per_layer"],
                **{"tracing.overhead_ratio": traced_wall / untraced_wall})


def print_table(run: dict, metrics: Dict[str, dict], layer: Optional[dict]) -> None:
    seed_note = ""
    if not run["timed"][0]["seeded_input"]:
        seed_note = " (seed reaches JobConfig.seed only; records are fixed)"
    print(f"== {run['workload']}  seed {run['seed']}{seed_note}")
    print(f"   {len(run['timed'])} timed samples, {len(run['traced'])} traced; "
          f"reference {run['reference']}")
    print(f"   {'metric':<24}{'value':>16}  {'unit':<10}{'samples':>8}")
    for name, entry in metrics.items():
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        note = ""
        if name == "sim_latency_tail_ms" and entry.get("percentile") is not None:
            note = f"  p{entry['percentile']:g}, {entry['beyond']} samples beyond"
        print(f"   {name:<24}{value:>16}  {entry['unit']:<10}{entry['n']:>8}{note}")
    drift = [s.get("wall_over_calibration") for s in run["timed"]
             if s.get("wall_over_calibration") is not None]
    if drift:
        print(f"   host drift: run wall / calibration loop = "
              + ", ".join(f"{d:.2f}" for d in drift))
    if layer is not None:
        from_layers = {k: v for k, v in layer.items() if k.endswith(".self_s")}
        total = sum(from_layers.values()) or 1.0
        print("   per-layer (traced run):")
        for name, value in layer.items():
            share = ""
            if name in from_layers:
                share = f"  {100.0 * value / total:5.1f}% of traced self time"
            print(f"   {name:<30}{value:>16.6g}{share}")
    for problem in run["problems"]:
        print(f"   CHECK FAILED: {problem}")
    for s in run["timed"] + run["traced"]:
        if sample_failure(s):
            print(f"   FAILED RUN ({s['kind']}): {sample_failure(s)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
            run["problems"] = check(run)
            runs.append(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    correct = True
    metrics_out: Dict[str, dict] = {}
    results = []
    for run in runs:
        metrics = summarize(run)
        layer = per_layer(run)
        print_table(run, metrics, layer)
        attempted += metrics["runs_failed"]["n"]
        failed += sum(1 for s in run["timed"] + run["traced"] if sample_failure(s))
        correct = correct and not run["problems"] and failed == 0
        prefix = "" if len(runs) == 1 else f"{run['workload']}."
        if args.trace:
            if layer is None:
                correct = False
                continue
            for name, value in layer.items():
                metrics_out[prefix + name] = {"value": value, "unit": PER_LAYER_UNITS[name]}
        else:
            for name in GATED:
                value = metrics[name]["value"]
                if value is None:
                    correct = False
                    continue
                metrics_out[prefix + name] = {"value": value, "unit": metrics[name]["unit"]}
        results.append({"workload": run["workload"], "seed": run["seed"],
                        "metrics": metrics, "per_layer": layer,
                        "problems": run["problems"], "samples": run["timed"] + run["traced"]})
    tag = args.workload if len(runs) == 1 else "all"
    (OUT / f"results-{tag}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"seed": args.seed, "held_out_seed": HELD_OUT_SEED, "runs": results},
                   indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
