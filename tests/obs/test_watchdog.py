"""Stall watchdog against a synthetic barrier stall.

These tests originally rode the two known-deadlocking fault schedules
(plans 537x2 and 612x2 at seed 145/1). Both are fixed -- see
docs/RECOVERY.md -- and now run clean, so the watchdog is exercised
against a manufactured stall instead: one thread is simply never
spawned, leaving every other thread parked at barrier 0 forever. That
reproduces the watchdog-relevant shape of the old deadlocks (a quiet
hook stream with threads waiting on a barrier generation that cannot
complete) without depending on a protocol bug staying broken.
"""

import pytest

from repro.errors import ConfigError
from repro.obs import StallWatchdog, build_waitfor, format_waitfor
from repro.verify.replay import ReplayScenario, build_runtime


def _run_stalled(victim_at=None):
    """Run with the last thread missing: everyone else ends up parked
    at the first barrier. Two threads per node so each node has a
    follower waiting on the named ``bar{id}.{epoch}`` event (with one
    thread per node every arrival is a leader, parked inside the
    internode exchange instead). With ``victim_at`` the missing thread
    is spawned at that time, so the stall is transient; without it the
    run stops at its cap, still stalled, and ``detach`` reports it."""
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, threads_per_node=2))
    dog = StallWatchdog(runtime, horizon_us=20_000.0)
    dog.start()
    runtime.workload.setup(runtime)
    runtime._create_threads()
    victim = runtime.threads[-1]
    for rec in runtime.threads:
        if rec is not victim:
            runtime.spawn_thread(rec)
    if victim_at is None:
        runtime.engine.run(until=100_000.0)
    else:
        runtime.engine.schedule(victim_at,
                                lambda: runtime.spawn_thread(victim))
        runtime.engine.run()
    dog.detach()
    return runtime, dog


def test_watchdog_fires_on_stall():
    runtime, dog = _run_stalled()
    assert dog.dumps, "watchdog never fired on a stalled run"
    report = dog.dumps[0]
    assert "wait-for graph" in report
    assert "thread" in report
    # The dump must name the blocked threads with their wait reason.
    assert "barrier" in report
    graph = dog.graphs[0]
    waiting = [t for t in graph["threads"]
               if t["waiting"] and not t["finished"]]
    assert waiting, "graph shows no blocked threads"
    assert any(t["kind"] == "barrier" for t in waiting)


def test_watchdog_reports_a_transient_stall_when_it_ends():
    runtime, dog = _run_stalled(victim_at=60_000.0)
    # One quiet window, reported once, by the first hook that ends it.
    assert len(dog.dumps) == 1
    graph = dog.graphs[0]
    assert graph["time_us"] >= 60_000.0
    assert any(t["kind"] == "barrier" for t in graph["threads"]
               if not t["finished"])
    assert all(rec.finished for rec in runtime.threads)


def test_waitfor_graph_shows_stalled_state():
    runtime, dog = _run_stalled()
    graph = dog.graphs[-1]
    # The stuck barrier shows up as a generation with missing arrivals
    # at the manager (the victim thread's node never arrived).
    stalled = [b for b in graph["barriers"] if b["missing"]]
    assert stalled, "no barrier generation with missing arrivals"
    assert 3 in stalled[0]["missing"]  # the victim lives on node 3


def test_waitfor_barrier_waiters_carry_epochs():
    """Each barrier waiter reports the generation its wait event names,
    its own completed-epoch counter, and its node's -- the three
    numbers the 612x2 post-mortem had to be reconstructed from."""
    runtime, dog = _run_stalled()
    graph = dog.graphs[-1]
    waiters = [t for t in graph["threads"]
               if not t["finished"] and t["kind"] == "barrier"]
    assert waiters, "no thread parked on a barrier"
    for t in waiters:
        assert t["wait_epoch"] is not None
        assert t["thread_epoch"] >= 0
        assert t["node_done"] >= 0
        # Nobody has completed generation 0 of the stuck barrier, and
        # a waiter can never be *ahead* of the epoch it waits in.
        assert t["thread_epoch"] <= t["wait_epoch"]
    report = format_waitfor(graph)
    assert "thread epoch" in report
    assert "node done" in report


@pytest.mark.parametrize("horizon_us", [0, -5])
def test_watchdog_rejects_a_nonpositive_horizon(horizon_us):
    # A horizon that is not positive calls every hook a stall.
    runtime = build_runtime(ReplayScenario(145, 1))
    with pytest.raises(ConfigError, match="must be > 0"):
        StallWatchdog(runtime, horizon_us=horizon_us)


def test_watchdog_is_quiet_on_clean_run():
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=533, failures=2))
    dog = StallWatchdog(runtime, horizon_us=20_000.0)
    dog.start()
    runtime.run()
    dog.detach()
    assert not dog.dumps


def test_watchdog_is_quiet_on_fixed_deadlock_plans():
    """The two formerly-deadlocking schedules now finish: the watchdog
    must see continuous progress and never dump."""
    for plan_seed in (537, 612):
        runtime = build_runtime(ReplayScenario(
            program_seed=145, cluster_seed=1,
            plan_seed=plan_seed, failures=2))
        dog = StallWatchdog(runtime, horizon_us=20_000.0)
        dog.start()
        runtime.run()
        dog.detach()
        assert not dog.dumps, f"plan {plan_seed} dumped a stall"


def test_format_waitfor_renders_live_runtime():
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=533, failures=0))
    runtime.run()
    graph = build_waitfor(runtime)
    text = format_waitfor(graph, horizon_us=1000.0)
    assert "wait-for graph" in text
    assert "thread 0" in text


def test_inflight_stage_names_follow_the_pipeline_constants():
    from repro.obs.watchdog import _STAGES
    from repro.protocol.ft import protocol
    assert _STAGES == {protocol.STAGE_PREP: "PREP",
                       protocol.STAGE_PHASE1: "PHASE1",
                       protocol.STAGE_POINT_B: "POINT_B",
                       protocol.STAGE_LOCK_RELEASE: "LOCK_RELEASE",
                       protocol.STAGE_PHASE2: "PHASE2"}
