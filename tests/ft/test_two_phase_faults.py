"""Failures injected inside the two-phase diff propagation window.

The release pipeline is: commit -> point A -> tentative diffs to the
secondary homes (phase 1) -> point B "complete" record at the backup ->
lock handover -> committed diffs to the primary homes (phase 2). A node
dying *between* those stages is exactly where diffs can be applied
twice, dropped during home reassignment, or attributed to the wrong
interval -- so each boundary gets a targeted kill, and every run must
leave the recovery invariant checker completely clean (oracle
agreement, diff accounting, checkpoint atomicity).
"""

import pytest

from repro.cluster import Hooks
from repro.harness.faultplan import FailureSpec, FaultPlan
from repro.verify import RecoveryInvariantChecker
from repro.verify.replay import ReplayScenario, build_runtime

#: (kill hook, occurrence) covering each stage boundary of the
#: two-phase pipeline, plus the lock-transfer edges around point B.
BOUNDARIES = (
    (Hooks.RELEASE_COMMITTED, 2),   # after commit, before point A
    (Hooks.CHECKPOINT_A, 2),        # after peer states shipped
    (Hooks.DIFF_PHASE1_DONE, 2),    # tentative applied, point B pending
    (Hooks.CHECKPOINT_B, 2),        # complete record stored, lock not
                                    # yet handed over
    (Hooks.DIFF_PHASE2_START, 2),   # committed propagation mid-air
    (Hooks.LOCK_RELEASED, 3),       # immediately after the handover
    (Hooks.LOCK_ACQUIRED, 3),       # next holder just picked it up
)


def run_with_kill(hook, occurrence, victim, delay=0.5,
                  program_seed=145, cluster_seed=1):
    runtime = build_runtime(ReplayScenario(program_seed, cluster_seed))
    FaultPlan([FailureSpec(victim=victim, hook=hook,
                           occurrence=occurrence, delay=delay)]) \
        .apply(runtime.cluster)
    checker = RecoveryInvariantChecker(runtime)
    result = runtime.run()  # analytic verify inside
    checker.finalize()
    return result, checker


@pytest.mark.parametrize("hook,occurrence", BOUNDARIES)
@pytest.mark.parametrize("victim", [0, 2])
def test_kill_at_stage_boundary_keeps_invariants(hook, occurrence,
                                                 victim):
    result, checker = run_with_kill(hook, occurrence, victim)
    assert checker.violations == []
    assert checker.audits_run > 0


@pytest.mark.parametrize("first,second", [
    # Victim dies between its own tentative and committed phases, then
    # a second node dies right at the subsequent lock transfer.
    ((Hooks.DIFF_PHASE1_DONE, 1, 1), (Hooks.LOCK_RELEASED, 1, 3)),
    # Complete record stored but phase 2 never ran; the follow-up kill
    # lands on the node that inherited the victim's home pages.
    ((Hooks.CHECKPOINT_B, 2, 2), (Hooks.DIFF_PHASE2_START, 1, 0)),
])
def test_chained_kills_across_phases(first, second):
    hook1, occ1, victim1 = first
    hook2, occ2, victim2 = second
    runtime = build_runtime(ReplayScenario(145, 1))
    FaultPlan([
        FailureSpec(victim=victim1, hook=hook1, occurrence=occ1,
                    delay=0.5),
        FailureSpec(victim=victim2, hook=hook2, occurrence=occ2,
                    delay=0.5, chained=True),
    ]).apply(runtime.cluster)
    checker = RecoveryInvariantChecker(runtime)
    result = runtime.run()
    checker.finalize()
    assert result.recoveries == 2
    assert checker.violations == []


def test_kill_with_zero_delay_at_point_b():
    """delay=0 lands the death at the same timestamp as the hook --
    the tightest race against the durability point."""
    result, checker = run_with_kill(Hooks.CHECKPOINT_B, 1, victim=3,
                                    delay=0.0)
    assert checker.violations == []
