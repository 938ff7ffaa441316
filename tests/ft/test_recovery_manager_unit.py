"""Direct tests of RecoveryManager bookkeeping (quiescence, stale
signals, double reports)."""

import pytest

from repro.config import ClusterConfig, ProtocolParams
from repro.errors import RecoveryError, UnrecoverableFailure
from repro.harness import SvmRuntime
from tests.protocol.test_base_integration import MigratoryData


def make_runtime(num_nodes=4):
    config = ClusterConfig(
        num_nodes=num_nodes, threads_per_node=1, shared_pages=32,
        num_locks=16, seed=5,
        page_size=512,
        protocol=ProtocolParams(variant="ft"))
    return SvmRuntime(config, MigratoryData(rounds=4))


def test_report_of_live_node_rejected():
    runtime = make_runtime()
    with pytest.raises(RecoveryError):
        runtime.recovery_manager.report_failure(2)


def test_double_report_same_node_is_idempotent():
    runtime = make_runtime()
    runtime.cluster.fail_node(2)
    runtime.recovery_manager.report_failure(2)
    runtime.recovery_manager.report_failure(2)  # no error
    assert runtime.recovery_manager.active == 2


def test_second_node_during_recovery_absorbed_as_victim():
    """A death during an active recovery is queued into the same
    rendezvous (ground-truth observer) instead of being fatal, and a
    duplicate report of it is idempotent."""
    runtime = make_runtime()
    runtime.cluster.fail_node(2)
    runtime.recovery_manager.report_failure(2)
    runtime.cluster.fail_node(3)  # observer queues it immediately
    assert runtime.recovery_manager.victims == {2, 3}
    runtime.recovery_manager.report_failure(3)  # duplicate: no-op
    assert runtime.recovery_manager.victims == {2, 3}
    assert runtime.recovery_manager.active == 2


def test_each_victim_is_queued_and_announced_exactly_once():
    """One intake for every way a failure arrives: a failure reported
    twice, and one reported (by the death observer, then again by a
    protocol-level detection) while a recovery is active, each queue
    the victim once and fire FAILURE_DETECTED once."""
    from repro.cluster import Hooks
    runtime = make_runtime()
    manager = runtime.recovery_manager
    detected = []
    runtime.cluster.hooks.on(
        Hooks.FAILURE_DETECTED, lambda node, **info: detected.append(node))
    runtime.cluster.fail_node(2)  # idle manager: the observer stays out
    assert detected == [] and manager.active is None
    manager.report_failure(2)
    manager.report_failure(2)
    assert manager._victim_queue == [2] and detected == [2]
    assert all(runtime.agents[i].recovery_pending.failed_node == 2
               for i in (0, 1, 3))
    runtime.cluster.fail_node(3)  # active manager: the observer reports
    manager.report_failure(3)
    assert manager._victim_queue == [2, 3] and detected == [2, 3]
    # The first victim's signal is what parked threads keep seeing.
    assert runtime.agents[0].recovery_pending.failed_node == 2
    assert manager.active == 2


def test_both_replica_homes_dying_together_unrecoverable():
    """Losing both copies of a page (its primary and secondary home in
    one batch) is the genuinely unrecoverable case the survivability
    audit must catch."""
    runtime = make_runtime()
    runtime.workload.setup(runtime)
    page = runtime.homes.allocated_pages()[0]
    primary = runtime.homes.primary_home(page)
    secondary = runtime.homes.secondary_home(page)
    runtime.cluster.fail_node(primary)
    runtime.recovery_manager.report_failure(primary)
    runtime.cluster.fail_node(secondary)
    with pytest.raises(UnrecoverableFailure):
        runtime.engine.run()


def test_stale_report_after_recovery_is_noop():
    """Once a node is recovered, late failure signals about it must
    not start a second recovery."""
    from repro.cluster import Hooks
    from repro.harness.faultplan import FaultPlan
    runtime = make_runtime()
    FaultPlan.single(2, Hooks.LOCK_ACQUIRED,
                     delay=0.3).apply(runtime.cluster)
    result = runtime.run()
    assert result.recoveries == 1
    manager = runtime.recovery_manager
    manager.report_failure(2)  # stale: already recovered
    assert manager.active is None
    assert manager.recoveries == 1


def test_required_parkers_excludes_victim_and_finished():
    runtime = make_runtime()
    runtime.workload.setup(runtime)
    runtime._create_threads()
    manager = runtime.recovery_manager
    runtime.cluster.fail_node(2)
    manager.report_failure(2)
    required = manager._required_parkers()
    assert 2 not in required
    assert set(required) == {0, 1, 3}
    runtime.threads[1].finished = True
    assert set(manager._required_parkers()) == {0, 3}
