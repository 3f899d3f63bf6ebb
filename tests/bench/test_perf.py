"""Unit tests for the perf-suite bookkeeping (no suites are run here)."""

from repro.bench.perf import BASELINE, SUITES, SuiteResult, perf_payload


def test_suites_cover_the_baseline():
    assert set(BASELINE) == set(SUITES)


def test_records_per_wall_second():
    result = SuiteResult(name="fig5", wall_clock_s=2.0, simulated_records=144000)
    assert result.records_per_wall_second == 72000.0


def test_perf_payload_shape():
    results = [
        SuiteResult(name="fig5", wall_clock_s=2.0, simulated_records=144000),
        SuiteResult(name="fig6-multi", wall_clock_s=50.0, simulated_records=140000),
    ]
    payload = perf_payload(results, golden_failures=[])
    assert payload["bench"] == "perf"
    assert payload["golden_ok"] is True
    assert payload["total_wall_clock_s"] == 52.0
    fig5 = payload["suites"]["fig5"]
    assert fig5["simulated_records"] == 144000
    assert fig5["records_per_wall_second"] == 72000.0
    assert fig5["baseline_wall_clock_s"] == BASELINE["fig5"]
    assert fig5["speedup_vs_baseline"] == round(BASELINE["fig5"] / 2.0, 2)
    # The headline number: combined speedup over the pinned baseline.
    expected_total = BASELINE["fig5"] + BASELINE["fig6-multi"]
    assert payload["baseline_total_wall_clock_s"] == expected_total
    assert payload["speedup_vs_baseline"] == round(expected_total / 52.0, 2)


def test_perf_payload_reports_golden_drift():
    payload = perf_payload([], golden_failures=["clonos: schedule_hash drifted"])
    assert payload["golden_ok"] is False
    assert payload["golden_failures"] == ["clonos: schedule_hash drifted"]


def test_perf_payload_records_counts_and_same_host_baseline():
    result = SuiteResult(
        name="fig6-single",
        wall_clock_s=4.0,
        simulated_records=144000,
        kernel_events=288000,
        source_polls=7200,
    )
    parent = {"suites": {"fig6-single": {"wall_clock_s": 8.0, "kernel_events": 576000}}}
    entry = perf_payload([result], same_host_baseline=parent)["suites"]["fig6-single"]
    assert entry["kernel_events"] == 288000
    assert entry["kernel_events_per_record"] == 2.0
    assert entry["source_polls"] == 7200
    assert entry["source_polls_per_record"] == 0.05
    assert entry["same_host_baseline"] == {
        "wall_clock_s": 8.0,
        "kernel_events": 576000,
        "speedup": 2.0,
    }


def test_run_counts_are_deterministic_and_match_the_schedule_tracer():
    from repro.analysis.sanitizer import traced_environments
    from repro.bench.golden import EXPECTED, run_golden
    from repro.harness.experiment import counting_runs

    with counting_runs() as counts, traced_environments(keep_trace=False):
        digests = run_golden("clonos")
    assert digests == EXPECTED["clonos"]  # counting is passive
    [run] = counts
    assert run.kernel_events == EXPECTED["clonos"].kernel_steps
    with counting_runs() as again:
        run_golden("clonos")
    assert again == counts
    assert run.source_polls > 0
