"""SimProfiler: attribution, merge/report, and factory lifecycle."""

from repro.sim.core import Environment
from repro.trace import SimProfiler, merge_profiles, profiling


def test_profiling_attaches_and_restores_the_factory():
    assert Environment._profiler_factory is None
    with profiling() as profilers:
        env = Environment()
        assert env.profiler is profilers[0]
    assert Environment._profiler_factory is None
    assert Environment().profiler is None


def test_self_time_is_attributed_to_processes():
    with profiling() as profilers:
        env = Environment()

        def worker():
            for _ in range(3):
                yield env.timeout(1.0)

        env.process(worker(), name="worker-a")
        env.run()
    (profiler,) = profilers
    assert profiler.steps > 0
    rows = {row.name: row for row in profiler.rows()}
    assert "process:worker-a" in rows
    assert rows["process:worker-a"].calls >= 3
    assert profiler.total_ms() >= 0.0


def test_rows_sorted_by_total_and_top_limits():
    profiler = SimProfiler()
    profiler._calls.update({"process:a": 2, "process:b": 1})
    profiler._total_ns.update({"process:a": 5_000_000, "process:b": 9_000_000})
    rows = profiler.rows()
    assert [row.name for row in rows] == ["process:b", "process:a"]
    assert profiler.rows(top=1)[0].name == "process:b"
    assert rows[1].mean_us == 2500.0


def test_merge_profiles_sums_calls_and_time():
    one, two = SimProfiler(), SimProfiler()
    one._calls["process:a"] = 1
    one._total_ns["process:a"] = 1_000_000
    one.steps = 4
    two._calls["process:a"] = 2
    two._total_ns["process:a"] = 3_000_000
    two.steps = 6
    merged = merge_profiles([one, two])
    assert merged.steps == 10
    (row,) = merged.rows()
    assert row.calls == 3
    assert row.total_ms == 4.0
    assert "kernel steps" in merged.report()


def test_empty_report_is_harmless():
    assert SimProfiler().report() == "profiler: no callbacks recorded"


def test_profiled_run_times_its_end_of_run_gc_sweep():
    from repro.config import FaultToleranceMode
    from repro.harness.experiment import run_experiment
    from repro.workloads.synthetic import synthetic_chain

    from tests.runtime.helpers import make_config

    def build(log, external):
        return synthetic_chain(
            log,
            depth=2,
            parallelism=1,
            rate_per_partition=2000.0,
            total_per_partition=200,
            out_topic="out",
        )

    with profiling() as profilers:
        run_experiment(build, make_config(FaultToleranceMode.CLONOS), limit=60)
    (profiler,) = profilers
    assert profiler.gc_sweeps == 1
    assert profiler.gc_tracked > 0
    assert profiler.gc_collect_ns > 0
    assert "GC-tracked objects live" in profiler.report()


def test_merge_keeps_the_largest_gc_count_and_sums_sweep_time():
    one, two = SimProfiler(), SimProfiler()
    one._calls["process:a"] = two._calls["process:a"] = 1
    one._total_ns["process:a"] = two._total_ns["process:a"] = 1
    one.gc_sweeps, one.gc_tracked, one.gc_collect_ns = 1, 500, 2_000_000
    two.gc_sweeps, two.gc_tracked, two.gc_collect_ns = 1, 300, 1_000_000
    merged = merge_profiles([one, two])
    assert (merged.gc_sweeps, merged.gc_tracked) == (2, 500)
    assert merged.gc_collect_ns == 3_000_000
    assert "500 GC-tracked objects live (largest of 2 runs)" in merged.report()
    assert "gc at run end" not in SimProfiler().report()
