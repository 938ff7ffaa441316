"""Unit tests for the cluster hardware model."""

import pytest

from repro.config import ClusterConfig
from repro.cluster import Cluster
from repro.errors import ConfigError, RemoteNodeFailure, SimulationError
from repro.harness.faultplan import FailureSpec, FaultPlan


def small_config(**kw):
    defaults = dict(num_nodes=4, threads_per_node=1, shared_pages=16,
                    seed=7)
    defaults.update(kw)
    return ClusterConfig(**defaults)


def test_cluster_builds_requested_nodes():
    cluster = Cluster(small_config())
    assert len(cluster.nodes) == 4
    assert cluster.live_nodes() == [0, 1, 2, 3]


def test_nodes_can_communicate_through_fabric():
    cluster = Cluster(small_config())
    region = cluster.node(1).regions.export("buf", 128)

    def sender():
        yield from cluster.node(0).vmmc.remote_deposit(
            1, "buf", 0, b"ping", wait=True)

    cluster.node(0).spawn(sender(), "sender")
    cluster.engine.run()
    assert region.read(0, 4) == b"ping"


def test_fail_node_kills_its_processes():
    cluster = Cluster(small_config())
    trace = []

    def worker():
        try:
            yield 100.0
            trace.append("survived")
        finally:
            trace.append("cleanup")

    cluster.node(2).spawn(worker(), "worker")
    cluster.engine.schedule(10.0, lambda: cluster.fail_node(2))
    cluster.engine.run()
    assert trace == ["cleanup"]
    assert cluster.live_nodes() == [0, 1, 3]


def test_spawn_on_dead_node_rejected():
    cluster = Cluster(small_config())
    cluster.fail_node(1)
    with pytest.raises(SimulationError):
        cluster.node(1).spawn(iter(()), "late")


def test_communication_with_failed_node_errors():
    cluster = Cluster(small_config())
    cluster.node(3).regions.export("buf", 128)
    outcome = []

    def sender():
        yield 5.0
        try:
            yield from cluster.node(0).vmmc.remote_deposit(
                3, "buf", 0, b"x", wait=True)
        except RemoteNodeFailure as exc:
            outcome.append(exc.node_id)

    cluster.node(0).spawn(sender(), "sender")
    cluster.engine.schedule(1.0, lambda: cluster.fail_node(3))
    cluster.engine.run()
    assert outcome == [3]


def test_mem_copy_charges_time():
    config = small_config()
    cluster = Cluster(config)
    times = []

    def copier():
        yield from cluster.node(0).mem_copy(4096)
        times.append(cluster.engine.now)

    cluster.node(0).spawn(copier(), "copier")
    cluster.engine.run()
    assert times[0] == pytest.approx(4096 / 400.0)


def test_bus_contention_serializes_copies():
    config = small_config()
    cluster = Cluster(config)
    times = []

    def copier(tag):
        yield from cluster.node(0).mem_copy(4000)
        times.append(cluster.engine.now)

    cluster.node(0).spawn(copier("a"), "a")
    cluster.node(0).spawn(copier("b"), "b")
    cluster.engine.run()
    # Second copy waits for the first: 10us then 20us.
    assert times == [pytest.approx(10.0), pytest.approx(20.0)]


def test_failure_injector_time_based():
    cluster = Cluster(small_config())
    [record] = FaultPlan([FailureSpec(1, at_time=42.0)]).apply(cluster)
    cluster.engine.run()
    assert record.fired_at == 42.0
    assert not cluster.node(1).alive


def test_failure_injector_hook_based():
    cluster = Cluster(small_config())
    [record] = FaultPlan.single(2, "my_hook", occurrence=3).apply(cluster)

    def firer():
        for _ in range(5):
            yield 10.0
            cluster.hooks.fire("my_hook", 2)

    cluster.node(0).spawn(firer(), "firer")  # fired on behalf of node 2
    cluster.engine.run()
    assert record.fired_at == pytest.approx(30.0)
    assert not cluster.node(2).alive


def test_hook_injection_ignores_other_nodes():
    cluster = Cluster(small_config())
    [record] = FaultPlan.single(2, "my_hook").apply(cluster)

    def firer():
        yield 1.0
        cluster.hooks.fire("my_hook", 0)  # different node: no kill

    cluster.node(0).spawn(firer(), "firer")
    cluster.engine.run()
    assert record.fired_at is None
    assert cluster.node(2).alive


def test_fault_plan_rejects_a_victim_outside_the_cluster():
    cluster = Cluster(small_config())
    plan = FaultPlan([FailureSpec(1, at_time=5.0),
                      FailureSpec(4, hook="my_hook", chained=True)])
    with pytest.raises(ConfigError, match="cannot kill node 4"):
        plan.apply(cluster)
    # Nothing was armed: the valid first spec did not schedule its kill.
    cluster.engine.run()
    assert cluster.node(1).alive


def test_deterministic_node_rngs():
    c1 = Cluster(small_config())
    c2 = Cluster(small_config())
    assert [n.rng.random() for n in c1.nodes] == \
        [n.rng.random() for n in c2.nodes]
    assert c1.node(0).rng.random() != c1.node(1).rng.random()
