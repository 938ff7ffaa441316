"""Fault injection: kill a node, recover, and the answer must still be
right.

These are the falsifiable version of paper section 4.5: every recovery
case (failure during computation, during phase 1 of diff propagation,
during checkpointing, during phase 2) must leave shared memory release
consistent, and the application -- resumed on the backup node from its
last checkpoint -- must produce exactly the result of a failure-free
run.
"""

import numpy as np
import pytest

from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.errors import UnrecoverableFailure
from repro.harness import SvmRuntime
from repro.harness.faultplan import FailureSpec, FaultPlan
from tests.protocol.test_base_integration import (
    CounterWorkload,
    MigratoryData,
    NeighborExchange,
)


def ft_config(num_nodes=4, threads_per_node=1, seed=3):
    return ClusterConfig(
        num_nodes=num_nodes,
        threads_per_node=threads_per_node,
        shared_pages=64,
        num_locks=64,
        seed=seed,
        page_size=512,
        protocol=ProtocolParams(variant="ft", lock_algorithm="polling"),
    )


def run_with_failure(workload, victim=2, kill_hook=None, occurrence=1,
                     kill_time=None, config=None, delay=0.0):
    runtime = SvmRuntime(config or ft_config(), workload)
    if kill_hook is not None:
        plan = FaultPlan.single(victim, kill_hook, occurrence, delay)
    else:
        plan = FaultPlan([FailureSpec(victim, at_time=kill_time)])
    [record] = plan.apply(runtime.cluster)
    result = runtime.run()
    return runtime, result, record


def test_failure_during_computation():
    """Kill a node between synchronization points."""
    runtime, result, record = run_with_failure(
        CounterWorkload(increments=6), victim=2,
        kill_hook=Hooks.LOCK_ACQUIRED, occurrence=2, delay=0.4)
    assert record.fired_at is not None
    assert result.recoveries == 1
    assert runtime.threads[2].resumptions == 1
    # The thread migrated to the victim's backup node.
    assert runtime.threads[2].current_node != 2


def test_failure_during_phase1_rolls_back():
    """Die inside phase 1 of diff propagation: the release must be
    cancelled (tentative copies restored) and replayed."""
    runtime, result, record = run_with_failure(
        MigratoryData(rounds=10), victim=1,
        kill_hook=Hooks.RELEASE_COMMITTED, occurrence=2, delay=2.0)
    assert record.fired_at is not None
    assert result.recoveries == 1


def test_failure_after_point_b_rolls_forward():
    """Die after the timestamp was saved (phase 1 complete): the
    release must be rolled forward from the saved diffs."""
    runtime, result, record = run_with_failure(
        MigratoryData(rounds=10), victim=1,
        kill_hook=Hooks.DIFF_PHASE1_DONE, occurrence=2, delay=0.1)
    assert record.fired_at is not None
    assert result.recoveries == 1


def test_failure_during_phase2():
    runtime, result, record = run_with_failure(
        MigratoryData(rounds=10), victim=1,
        kill_hook=Hooks.DIFF_PHASE2_START, occurrence=3, delay=1.0)
    assert record.fired_at is not None
    assert result.recoveries == 1


def test_failure_during_checkpoint():
    runtime, result, record = run_with_failure(
        MigratoryData(rounds=10), victim=3,
        kill_hook=Hooks.CHECKPOINT_A, occurrence=2, delay=0.5)
    assert record.fired_at is not None
    assert result.recoveries == 1


def test_failure_of_barrier_participant_detected_by_watchdog():
    """Kill a node while others sit at a barrier: only the manager's
    watchdog can notice."""
    runtime, result, record = run_with_failure(
        NeighborExchange(ints_per_thread=64), victim=3,
        kill_hook=Hooks.BARRIER_ENTER, occurrence=2, delay=0.2)
    assert record.fired_at is not None
    assert result.recoveries == 1


def test_failure_of_lock_holder_detected_by_spinners():
    """Kill a node while it holds a lock others are spinning on."""
    runtime, result, record = run_with_failure(
        CounterWorkload(increments=8), victim=1,
        kill_hook=Hooks.LOCK_ACQUIRED, occurrence=3, delay=0.2)
    assert record.fired_at is not None
    assert result.recoveries == 1


def test_failure_of_barrier_manager_node():
    """Node 0 hosts the barrier manager; its failure must move the
    manager role to the next live node."""
    runtime, result, record = run_with_failure(
        NeighborExchange(ints_per_thread=64), victim=0,
        kill_hook=Hooks.BARRIER_EXIT, occurrence=2, delay=5.0)
    assert record.fired_at is not None
    assert result.recoveries == 1
    assert runtime.homes.barrier_manager() != 0


def test_failure_with_smp_nodes():
    runtime, result, record = run_with_failure(
        MigratoryData(rounds=8), victim=1,
        kill_hook=Hooks.RELEASE_COMMITTED, occurrence=2, delay=1.0,
        config=ft_config(num_nodes=3, threads_per_node=2))
    assert record.fired_at is not None
    assert result.recoveries == 1
    # Both of the victim's threads migrated.
    migrated = [rec for rec in runtime.threads if rec.resumptions == 1]
    assert len(migrated) == 2


def test_successive_failures_recovered():
    """Two failures, strictly one after the other (the paper's
    multiple-but-not-simultaneous case)."""
    runtime = SvmRuntime(ft_config(num_nodes=4),
                         MigratoryData(rounds=14))
    FaultPlan([
        FailureSpec(3, hook=Hooks.LOCK_ACQUIRED, occurrence=2, delay=0.3),
        # Armed only after the first recovery is done.
        FailureSpec(2, hook=Hooks.LOCK_ACQUIRED, delay=0.3, chained=True),
    ]).apply(runtime.cluster)
    result = runtime.run()
    assert result.recoveries == 2
    assert sorted(runtime.cluster.live_nodes()) == [0, 1]


def test_simultaneous_failures_unrecoverable():
    runtime = SvmRuntime(ft_config(num_nodes=4),
                         MigratoryData(rounds=12))
    FaultPlan.single(1, Hooks.LOCK_ACQUIRED, occurrence=2,
                     delay=0.2).apply(runtime.cluster)

    def kill_other(node_id, **info):
        # Second node dies the instant recovery of the first begins.
        if runtime.cluster.node(2).alive:
            runtime.cluster.fail_node(2)

    runtime.cluster.hooks.on(Hooks.RECOVERY_START, kill_other)
    with pytest.raises(UnrecoverableFailure):
        runtime.run()


def test_recovery_time_is_recorded():
    runtime, result, record = run_with_failure(
        MigratoryData(rounds=8), victim=1,
        kill_hook=Hooks.RELEASE_COMMITTED, occurrence=2, delay=1.0)
    assert runtime.recovery_manager.last_recovery_us > 0


@pytest.mark.parametrize("occurrence", [1, 2, 3, 4])
def test_failure_sweep_over_release_points(occurrence):
    """Kill the victim at successive releases; every point must
    recover to a correct result (verify() runs inside run())."""
    runtime, result, record = run_with_failure(
        MigratoryData(rounds=12), victim=2,
        kill_hook=Hooks.RELEASE_COMMITTED, occurrence=occurrence,
        delay=0.7)
    assert record.fired_at is not None
    assert result.recoveries == 1
