"""Integration-style tests for the NIC/Network/VMMC stack."""

import pytest

from repro.config import HEARTBEAT_TIMEOUT_US, NetworkParams
from repro.errors import MemoryError_, RemoteNodeFailure
from repro.net import NIC, Network, VMMC
from repro.sim import Engine


def make_cluster_net(num_nodes=2, params=None):
    """Build engine + network + one (NIC, VMMC) pair per node."""
    engine = Engine()
    params = params or NetworkParams()
    network = Network(engine, params)
    endpoints = []
    for node_id in range(num_nodes):
        nic = NIC(engine, node_id, params)
        network.attach(nic)
        endpoints.append(VMMC(engine, nic))
    return engine, network, endpoints


def test_remote_deposit_lands_in_remote_region():
    engine, network, (a, b) = make_cluster_net()
    region = network.nic(1).regions.export("buf", 256)

    def sender():
        yield from a.remote_deposit(1, "buf", 16, b"hello", wait=True)

    engine.spawn(sender())
    engine.run()
    assert region.read(16, 5) == b"hello"


def test_deposit_without_wait_is_asynchronous():
    engine, network, (a, b) = make_cluster_net()
    network.nic(1).regions.export("buf", 64)
    finished_at = []

    def sender():
        yield from a.remote_deposit(1, "buf", 0, b"x" * 32)
        finished_at.append(engine.now)

    engine.spawn(sender())
    engine.run()
    # Sender returned before the wire latency (8us) could have elapsed.
    assert finished_at[0] < 8.0


def test_remote_fetch_returns_remote_bytes():
    engine, network, (a, b) = make_cluster_net()
    region = network.nic(1).regions.export("buf", 128)
    region.write(32, b"abcdef")
    got = []

    def reader():
        data = yield from a.remote_fetch(1, "buf", 32, 6)
        got.append((data, engine.now))

    engine.spawn(reader())
    engine.run()
    assert got[0][0] == b"abcdef"
    # Round trip: at least two wire latencies.
    assert got[0][1] >= 16.0


def test_fifo_ordering_per_destination():
    """Each notify sees exactly the deposits posted before it."""
    engine, network, (a, b) = make_cluster_net()
    region = network.nic(1).regions.export("buf", 8)
    writes = []
    network.nic(1).register_notify_handler(
        "seen", lambda msg: writes.append(region.read(0, 1)))

    def sender():
        for i in range(10):
            yield from a.remote_deposit(1, "buf", 0, bytes([i]))
            yield from a.notify(1, "seen", None)

    engine.spawn(sender())
    engine.run()
    assert writes == [bytes([i]) for i in range(10)]


def test_deposit_to_dead_node_raises_when_waiting():
    engine, network, (a, b) = make_cluster_net()
    network.nic(1).regions.export("buf", 64)
    outcome = []

    def sender():
        yield 1.0
        try:
            yield from a.remote_deposit(1, "buf", 0, b"data", wait=True)
            outcome.append("ok")
        except RemoteNodeFailure as exc:
            outcome.append(("dead", exc.node_id))

    network.nic(1).fail()
    engine.spawn(sender())
    engine.run()
    assert outcome == [("dead", 1)]


def test_fetch_from_dead_node_raises():
    engine, network, (a, b) = make_cluster_net()
    network.nic(1).regions.export("buf", 64)
    outcome = []

    def reader():
        network.nic(1).fail()
        try:
            yield from a.remote_fetch(1, "buf", 0, 8)
        except RemoteNodeFailure:
            outcome.append("detected")

    engine.spawn(reader())
    engine.run()
    assert outcome == ["detected"]


def test_node_dying_mid_request_detected_by_heartbeat():
    """Peer receives the request then dies before replying: the
    heart-beat probe must detect the failure."""
    engine, network, (a, b) = make_cluster_net()
    region = network.nic(1).regions.export("buf", 64)
    outcome = []

    # Kill node 1 right after the request is delivered into its NIC
    # (post 0.7 + NIC 1.5 + serialize ~1 + wire 8 = ~11.2us) but before
    # its reply is transmitted, so the requester sees silence rather
    # than a fabric error and must fall back to heart-beat probing.
    def killer():
        yield 11.5
        network.nic(1).fail()

    def reader():
        try:
            yield from a.remote_fetch(1, "buf", 0, 8)
            outcome.append("ok")
        except RemoteNodeFailure:
            outcome.append(("detected", engine.now))

    engine.spawn(killer())
    engine.spawn(reader())
    engine.run()
    assert outcome[0][0] == "detected"
    # Detection takes at least one heart-beat timeout.
    assert outcome[0][1] >= HEARTBEAT_TIMEOUT_US


def test_subsequent_operations_to_dead_node_fail_immediately():
    engine, network, (a, b) = make_cluster_net()
    network.nic(1).regions.export("buf", 64)
    times = []

    def reader():
        network.nic(1).fail()
        for _ in range(2):
            try:
                yield from a.remote_fetch(1, "buf", 0, 8)
            except RemoteNodeFailure:
                times.append(engine.now)

    engine.spawn(reader())
    engine.run()
    assert len(times) == 2
    # Second failure is known locally: no extra communication round.
    assert times[1] == times[0]


def test_probe_alive_and_dead():
    engine, network, (a, b) = make_cluster_net()
    results = []

    def prober():
        alive = yield from a.probe(1)
        results.append(alive)
        network.nic(1).fail()
        alive = yield from a.probe(1)
        results.append(alive)

    engine.spawn(prober())
    engine.run()
    assert results == [True, False]


def test_notify_invokes_registered_handler():
    engine, network, (a, b) = make_cluster_net()
    seen = []
    network.nic(1).register_notify_handler(
        "locks", lambda msg: seen.append(msg.payload[1]))

    def sender():
        yield from a.notify(1, "locks", {"op": "acquire"}, wait=True)

    engine.spawn(sender())
    engine.run()
    assert seen == [{"op": "acquire"}]


def test_post_queue_backpressure_blocks_sender():
    params = NetworkParams(post_queue_depth=2, bandwidth_bytes_per_us=1.0)
    engine, network, (a, b) = make_cluster_net(params=params)
    network.nic(1).regions.export("buf", 8192)
    done = []

    def sender():
        # Each message takes ~ (32+1024)/1 us to serialize; with queue
        # depth 2 the fourth post must block.
        for i in range(4):
            yield from a.remote_deposit(1, "buf", 0, b"z" * 1024)
        done.append(engine.now)

    engine.spawn(sender())
    engine.run()
    assert network.nic(0).post_queue_stalls >= 1
    # The sender was throttled to roughly the serialization rate.
    assert done[0] > 1056.0  # at least one full message serialization


def test_region_bounds_checked():
    engine, network, (a, b) = make_cluster_net()
    region = network.nic(1).regions.export("buf", 64)
    with pytest.raises(MemoryError_):
        region.read(60, 8)
    with pytest.raises(MemoryError_):
        region.write(-1, b"x")


def test_message_counters():
    engine, network, (a, b) = make_cluster_net()
    network.nic(1).regions.export("buf", 64)

    def sender():
        yield from a.remote_deposit(1, "buf", 0, b"abcd", wait=True)

    engine.spawn(sender())
    engine.run()
    assert network.nic(0).messages_sent == 1
    assert network.nic(1).messages_received == 1
    assert network.nic(0).bytes_sent == 32 + 4


def test_service_call_roundtrip():
    engine, network, (a, b) = make_cluster_net()

    def handler(body, src):
        yield 2.0
        return {"echo": body, "from": src}, 16

    network.nic(1).register_service("echo", handler)
    results = []

    def caller():
        reply = yield from a.call(1, "echo", "hi")
        results.append(reply)

    engine.spawn(caller())
    engine.run()
    assert results == [{"echo": "hi", "from": 0}]


def test_service_deferred_reply():
    """A service handler may wait (e.g. a barrier manager); concurrent
    requests are each served by their own process."""
    engine, network, endpoints = make_cluster_net(num_nodes=3)
    from repro.sim import Event as _Event
    gate = _Event(engine, "gate")
    arrivals = []

    def handler(body, src):
        arrivals.append(src)
        if len(arrivals) == 2:
            gate.succeed(None)
        yield gate
        return "released", 8

    network.nic(2).register_service("barrier", handler)
    done = []

    def caller(ep):
        reply = yield from ep.call(2, "barrier", None)
        done.append((ep.node_id, reply, engine.now))

    engine.spawn(caller(endpoints[0]))
    engine.spawn(caller(endpoints[1]))
    engine.run()
    assert sorted(d[0] for d in done) == [0, 1]
    assert all(d[1] == "released" for d in done)


def test_service_call_to_dead_node_raises():
    engine, network, (a, b) = make_cluster_net()

    def handler(body, src):
        return "ok", 8
        yield  # pragma: no cover

    network.nic(1).register_service("echo", handler)
    outcome = []

    def caller():
        network.nic(1).fail()
        try:
            yield from a.call(1, "echo", "hi")
        except RemoteNodeFailure:
            outcome.append("dead")

    engine.spawn(caller())
    engine.run()
    assert outcome == ["dead"]
