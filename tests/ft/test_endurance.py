"""Endurance: multiple successive failures down to two nodes.

The paper tolerates "multiple, but not simultaneous" failures provided
the system recovers in between. We shrink a 6-node cluster failure by
failure to its 2-node minimum, arming each next death only after the
previous recovery completes, and the application result must survive
all of it.
"""

import pytest

from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.errors import UnrecoverableFailure
from repro.harness import SvmRuntime
from repro.harness.faultplan import FailureSpec, FaultPlan
from tests.protocol.test_base_integration import MigratoryData


def make_runtime(num_nodes=6, rounds=24, seed=4):
    config = ClusterConfig(
        num_nodes=num_nodes, threads_per_node=1, shared_pages=64,
        num_locks=64, seed=seed,
        page_size=512,
        protocol=ProtocolParams(variant="ft", lock_algorithm="polling"))
    return SvmRuntime(config, MigratoryData(rounds=rounds))


def successive_kills(victims, delay=0.5):
    """Kill each victim at its first lock acquire, arming each next
    death only once the previous recovery has completed."""
    return FaultPlan([
        FailureSpec(victim, hook=Hooks.LOCK_ACQUIRED, delay=delay,
                    chained=index > 0)
        for index, victim in enumerate(victims)])


def test_four_successive_failures_down_to_two_nodes():
    runtime = make_runtime(num_nodes=6, rounds=24)
    victims = [5, 4, 3, 2]
    successive_kills(victims).apply(runtime.cluster)
    result = runtime.run()  # verifies the migratory sum
    assert result.recoveries == 4
    assert sorted(runtime.cluster.live_nodes()) == [0, 1]
    # All four victims' threads migrated (possibly repeatedly, when a
    # backup node subsequently died too).
    for victim in victims:
        assert runtime.threads[victim].resumptions >= 1


def test_failure_below_two_nodes_unrecoverable():
    """Killing down past the replication minimum must be rejected."""
    runtime = make_runtime(num_nodes=3, rounds=18)
    successive_kills([2, 1]).apply(runtime.cluster)
    with pytest.raises(UnrecoverableFailure):
        runtime.run()


def test_backup_chain_failure():
    """Kill a node, then kill the backup that adopted its threads: the
    twice-migrated threads must still finish correctly."""
    runtime = make_runtime(num_nodes=5, rounds=20)
    # Node 2 dies; its threads land on node 3 (next live). Then node 3
    # dies, carrying both its own thread and the adopted one.
    FaultPlan([
        FailureSpec(2, hook=Hooks.LOCK_ACQUIRED, occurrence=2, delay=0.5),
        FailureSpec(3, hook=Hooks.LOCK_ACQUIRED, delay=0.5, chained=True),
    ]).apply(runtime.cluster)
    result = runtime.run()
    assert result.recoveries == 2
    assert runtime.threads[2].resumptions == 2
    assert runtime.threads[3].resumptions == 1
    # Both now live on the same surviving node.
    assert runtime.threads[2].current_node == \
        runtime.threads[3].current_node
