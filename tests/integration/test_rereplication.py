"""End-to-end re-replication: failure sequences and mid-recovery kills.

The dynamic re-replication phase (recovery step 8, docs/RECOVERY.md)
restores dual-copy protection after every recovery, so the cluster
survives *sequences* of failures -- chained, and striking while a
previous recovery is still running. These runs are judged by
``run_case``, whose invariant checker runs its full re-protection audit
at every final RECOVERY_DONE.
"""

import random

import pytest

from repro.cluster import Hooks
from repro.harness.faultplan import FailureSpec, FaultPlan
from repro.verify import RecoveryInvariantChecker
from repro.verify.replay import ReplayScenario, build_runtime
from tests.integration.test_run_capped import run_clean


@pytest.mark.parametrize("plan_seed", [533, 434, 500, 601, 612, 475])
def test_during_recovery_strikes_stay_clean(plan_seed):
    """Every chained failure re-drawn as a mid-recovery strike: the
    coordinator absorbs the extra victim into the same rendezvous and
    the checker (including the re-protection audit) stays silent."""
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=plan_seed,
        failures=2, during_recovery_prob=1.0))
    result = run_clean(runtime)
    assert all(rec.finished for rec in runtime.threads)
    manager = runtime.recovery_manager
    assert len(manager.exposed_windows) == manager.recoveries
    assert result.exposed_window_us == max(manager.exposed_windows)


def test_multi_victim_single_rendezvous_fires_final_done_once():
    """A mid-recovery death joins the active rendezvous: per-victim
    DONE events fire with final=False until the last wave releases."""
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=533, failures=2,
        during_recovery_prob=1.0))
    dones = []
    runtime.cluster.hooks.on(
        Hooks.RECOVERY_DONE,
        lambda node_id, **info: dones.append(
            (node_id, info.get("final", True))))
    run_clean(runtime)
    finals = [node for node, final in dones if final]
    assert len(finals) == 1
    assert len(dones) == 2  # one intermediate wave + the final one
    # Both victims are dead and the two survivors finish the workload.
    assert len(runtime.cluster.live_nodes()) == 2


def test_three_sequential_failures_on_five_nodes():
    """A 5-node cluster genuinely injects three failures; after each
    one the re-protection audit proves every page, lock, and ward is
    back on two live nodes before the next strike."""
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=None, failures=0,
        num_nodes=5))
    FaultPlan.random_plan(random.Random(434), num_nodes=5,
                          failures=3).apply(runtime.cluster)
    assert run_clean(runtime).recoveries == 3
    assert len(runtime.cluster.live_nodes()) == 2
    assert all(rec.finished for rec in runtime.threads)


def test_backup_of_resumed_threads_dying_next_is_survivable():
    """Deterministic cascade: kill node 2, then kill the node that
    adopted node 2's threads and checkpoint ward, mid-run. The second
    recovery must re-resume those threads from the re-replicated
    checkpoint history (step 6b absorb), not lose them."""
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=None, failures=0))
    first_backup = runtime.homes.backup_node(2)
    plan = FaultPlan([
        FailureSpec(victim=2, hook=Hooks.LOCK_ACQUIRED, occurrence=2,
                    delay=0.4),
        FailureSpec(victim=first_backup, hook=Hooks.LOCK_ACQUIRED,
                    occurrence=1, delay=0.4, chained=True),
    ])
    plan.apply(runtime.cluster)
    assert run_clean(runtime).recoveries == 2
    assert all(rec.finished for rec in runtime.threads)
    # The threads that lived on node 2 were resumed twice: once onto
    # the first backup, then again when that backup died.
    twice = [rec for rec in runtime.threads if rec.resumptions == 2]
    assert twice, "no thread survived both failures via re-resume"


def test_reprotection_audit_reports_one_broken_replica_per_kind():
    """Break one replica of each kind after a clean run: a page and a
    lock whose secondary is elected onto their primary, and a ward whose
    backup lost the records the node's self-mirror claims durable. The
    audit reports each one, once, in ring order."""
    runtime = build_runtime(ReplayScenario(program_seed=145,
                                           cluster_seed=1))
    checker = RecoveryInvariantChecker(runtime, strict=False)
    runtime.run(max_sim_us=200_000.0)
    checker._audit_reprotection()
    assert checker.violations == []

    homes = runtime.homes
    page = homes.allocated_pages()[0]
    homes.pages._elected[page] = homes.primary_home(page)
    homes.locks._elected[0] = homes.lock_primary(0)
    ward = 1
    assert runtime.agents[ward].ckpt_mirror.max_valid_seq(ward) > 0
    runtime.agents[homes.backup_node(ward)].ckpt_store.forget_ward(ward)
    checker._audit_reprotection()
    details = [f.detail for f in checker.violations
               if f.invariant == "re-protection"]
    assert len(checker.violations) == len(details) == 3
    assert details[0].startswith(f"page {page} lacks two distinct live")
    assert details[1].startswith("lock 0 lacks two distinct live")
    assert details[2].startswith(f"node {ward}'s backup")
