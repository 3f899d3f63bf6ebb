"""The chaos soak, property-style: random fault schedules against the
recovery protocol.

The acceptance property: every run either preserves the failure-free output
(exactly-once on input origins) or explicitly records its degradation to
global-rollback semantics (at-least-once) — never silent loss, never silent
duplication, never a hang (``run_until_done`` raises on the deadline, which
Hypothesis reports as a failure with the offending seed).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan
from repro.chaos.soak import (
    DEGRADATION_MARKERS,
    chaos_soak,
    fast_chaos_config,
    run_chaos_experiment,
)

LIMIT = 120.0


def describe(result):
    return (
        f"seed {result.seed}: verdict={result.verdict} "
        f"missing={result.missing} duplicated={result.duplicated} "
        f"faults={result.chaos_summary.get('applied')} "
        f"({result.chaos_summary.get('kinds')})"
    )


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    max_faults=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=10, deadline=None)
def test_random_fault_schedules_never_violate(seed, max_faults):
    [result] = chaos_soak([seed], max_faults=max_faults, limit=LIMIT)
    assert result.ok, describe(result)
    assert result.duration < LIMIT
    if result.verdict != "exactly-once":
        # Degradation is only acceptable when announced.
        assert result.degradations, describe(result)


@st.composite
def recovery_overlap_scenarios(draw):
    """Fault schedules aimed at the recovery machinery itself: the standby
    dies right around the kill (standby crash during activation), and a
    second forced kill lands while the first recovery is still running."""
    # The 1200-record default workload drains around t=0.6: keep the kill
    # well inside the run so the victim is never already FINISHED.
    kill_at = draw(st.floats(min_value=0.2, max_value=0.5))
    return dict(
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        victim=draw(st.sampled_from(["stage1[0]", "stage1[1]", "stage2[0]"])),
        kill_at=kill_at,
        # Negative: standby dies before the kill (slow path from the start).
        # Small positive: standby dies inside the activation window.
        standby_delta=draw(st.floats(min_value=-0.05, max_value=0.04)),
        refail_delta=draw(st.floats(min_value=0.02, max_value=0.15)),
        second_kill=draw(st.booleans()),
    )


@given(recovery_overlap_scenarios())
@settings(max_examples=10, deadline=None)
def test_faults_during_ongoing_recovery_never_violate(params):
    plan = FaultPlan(seed=params["seed"])
    plan.add(
        max(0.0, params["kill_at"] + params["standby_delta"]),
        "standby_loss",
        target=params["victim"],
    )
    plan.add(params["kill_at"], "task_kill", target=params["victim"])
    if params["second_kill"]:
        # The engine kills with force=True, so this lands mid-recovery.
        plan.add(
            params["kill_at"] + params["refail_delta"],
            "task_kill",
            target=params["victim"],
        )
    result = run_chaos_experiment(
        plan, config=fast_chaos_config(seed=params["seed"]), limit=LIMIT
    )
    assert result.ok, describe(result)
    assert result.duration < LIMIT
    kills = [k for (_t, k, _w) in result.recovery_events if k == "chaos:task_kill"]
    assert kills, "the kill must actually apply"


def test_degraded_runs_announce_themselves():
    # Force the ladder to exhaust: dead standby plus a step deadline below
    # the deploy time.  The verdict must be the *announced* degradation.
    config = fast_chaos_config()
    config.clonos.recovery_step_deadline = 0.05
    plan = (
        FaultPlan(seed=3)
        .add(0.20, "standby_loss", target="stage1[0]")
        .add(0.25, "task_kill", target="stage1[0]")
    )
    result = run_chaos_experiment(plan, config=config, limit=LIMIT)
    assert result.verdict == "degraded:global_rollback", describe(result)
    assert any(k in DEGRADATION_MARKERS for (_t, k, _w) in result.degradations)
    assert result.missing == 0, "degraded still means at-least-once"


def test_overlapping_recoveries_of_a_receiver_and_both_senders_stay_exactly_once():
    # Found by the soak: stage2[1] dies, then both of its upstreams die while
    # it is still replaying.  The first sender's crash reset its link while
    # a buffer waited for a wire slot; the reset admitted that buffer and the
    # receiver saw seq 13 right after seq 8, so the replacement sender
    # deduplicated seqs 9-12 against a delivered_seq that skipped them and
    # 140 records vanished.  Any two of the three kills were exactly-once.
    plan = (
        FaultPlan(seed=2801)
        .add(0.1235, "task_kill", target="stage2[1]")
        .add(0.3249, "task_kill", target="stage1[1]")
        .add(0.4259, "task_kill", target="stage1[0]")
    )
    result = run_chaos_experiment(plan, limit=LIMIT)
    assert result.verdict == "exactly-once", describe(result)
