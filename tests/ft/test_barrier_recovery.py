"""Barrier/lock reconciliation across recoveries (recovery step 7b).

The 145/1/612x2 divergence showed that surviving nodes and
checkpoint-restored threads can disagree about how many generations of
a barrier have completed; without reconciliation the next generation
deadlocks (a leader gathers stragglers that are parked one epoch
ahead). These tests pin the three shapes reconciliation must handle:

* a thread restored from a checkpoint taken *before* a barrier its old
  node helped complete (restored thread at a stale epoch);
* a node dying in the middle of a barrier generation, after some nodes
  arrived at the manager and before the release (failure mid-arrival);
* two failures back to back, the second landing in the generation
  right after the first recovery (the 612x2 shape).

Every run carries the invariant checker, whose barrier-epoch audit
fires at each RECOVERY_RECONCILE point, so a reconciliation regression
fails as an invariant violation even when the run happens to finish.
"""

import pytest

from repro.cluster import Hooks
from repro.harness.faultplan import FailureSpec, FaultPlan
from repro.verify import RecoveryInvariantChecker
from repro.verify.replay import ReplayScenario, build_runtime

BARRIER_CAP_US = 400_000.0


def checked_run(runtime):
    checker = RecoveryInvariantChecker(runtime)
    result = runtime.run(max_sim_us=BARRIER_CAP_US)
    checker.finalize()
    assert checker.violations == []
    return result, checker


def watch_reconciliation(runtime):
    """Record every barrier-reconcile payload and each resumed
    thread's barrier epochs at the moment it was resumed."""
    seen = {"generations": [], "resumed": []}
    hooks = runtime.cluster.hooks

    def on_reconcile(node_id, action="", **info):
        if action == "barrier-reconcile":
            seen["generations"].append(dict(info["generations"]))

    def on_resumed(node_id, tid=-1, **info):
        rec = runtime.threads[tid]
        epochs = {key[1]: value for key, value in rec.ctx.state.items()
                  if isinstance(key, tuple) and len(key) == 2
                  and key[0] == "__bar__"}
        seen["resumed"].append({"tid": tid, "epochs": epochs})

    hooks.on(Hooks.RECOVERY_RECONCILE, on_reconcile)
    hooks.on(Hooks.THREAD_RESUMED, on_resumed)
    return seen


def test_restored_thread_at_stale_epoch():
    """Kill a node just after it exits a barrier: its threads restore
    from checkpoints taken before the generation completed, so they
    re-arrive at an epoch the cluster already finished. Reconciliation
    must pass them through instead of reopening the generation."""
    runtime = build_runtime(ReplayScenario(program_seed=145,
                                           cluster_seed=1))
    [record] = FaultPlan.single(2, Hooks.BARRIER_EXIT,
                                delay=1.0).apply(runtime.cluster)
    seen = watch_reconciliation(runtime)
    result, _ = checked_run(runtime)
    assert record.fired_at is not None
    assert result.recoveries == 1
    assert seen["generations"], "reconciliation pass never ran"
    merged = seen["generations"][-1]
    # The victim's thread came back from a pre-barrier checkpoint: its
    # restored epoch trails the merged generation count, which is the
    # exact state the pre-fix protocol deadlocked on.
    stale = [r for r in seen["resumed"]
             if any(r["epochs"].get(bid, 0) < gen
                    for bid, gen in merged.items())]
    assert stale, (f"no resumed thread was behind the merged "
                   f"generations {merged}: {seen['resumed']}")


def test_failure_mid_arrival():
    """Kill a node inside an open barrier generation, after arrivals
    started landing at the manager. The generation must complete with
    the survivors and the restored thread, not wait for the dead
    node's arrival forever."""
    runtime = build_runtime(ReplayScenario(program_seed=145,
                                           cluster_seed=1))
    [record] = FaultPlan.single(1, Hooks.BARRIER_ENTER, occurrence=2,
                                delay=3.0).apply(runtime.cluster)
    seen = watch_reconciliation(runtime)
    result, checker = checked_run(runtime)
    assert record.fired_at is not None
    assert result.recoveries == 1
    assert seen["generations"], "reconciliation pass never ran"
    assert checker.audits_run > 0


@pytest.mark.parametrize("second_victim,occurrence", [(0, 3), (3, 3)])
def test_back_to_back_failures_across_generation(second_victim,
                                                 occurrence):
    """Two failures bracketing a barrier generation: the first victim
    dies mid-generation, the second in the generation right after the
    first recovery (the 612x2 shape). Both reconciliation passes must
    leave every survivor and restored thread on one merged epoch."""
    runtime = build_runtime(ReplayScenario(program_seed=145,
                                           cluster_seed=1))
    first, second = FaultPlan([
        FailureSpec(1, hook=Hooks.BARRIER_ENTER, occurrence=2, delay=3.0),
        FailureSpec(second_victim, hook=Hooks.BARRIER_ENTER,
                    occurrence=occurrence, delay=3.0),
    ]).apply(runtime.cluster)
    seen = watch_reconciliation(runtime)
    result, _ = checked_run(runtime)
    assert first.fired_at is not None
    assert second.fired_at is not None
    assert second.fired_at > first.fired_at
    assert result.recoveries == 2
    assert len(seen["generations"]) == 2
    # Generation counts never regress between the two reconciliations.
    first_gens, second_gens = seen["generations"]
    for bid, gen in first_gens.items():
        assert second_gens.get(bid, 0) >= gen
