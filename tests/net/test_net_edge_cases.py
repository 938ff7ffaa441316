"""Edge-case tests for the communication layer."""

import pytest

from repro.config import NetworkParams
from repro.errors import NetworkError, RemoteNodeFailure
from repro.net import NIC, Network, VMMC
from repro.sim import Engine


def make_net(num_nodes=3, params=None):
    engine = Engine()
    params = params or NetworkParams()
    network = Network(engine, params)
    endpoints = []
    for node_id in range(num_nodes):
        nic = NIC(engine, node_id, params)
        network.attach(nic)
        endpoints.append(VMMC(engine, nic))
    return engine, network, endpoints


def test_duplicate_region_export_rejected():
    engine, network, endpoints = make_net()
    network.nic(0).regions.export("dup", 64)
    from repro.errors import MemoryError_
    with pytest.raises(MemoryError_):
        network.nic(0).regions.export("dup", 64)


def test_duplicate_service_rejected():
    engine, network, endpoints = make_net()

    def handler(body, src):
        return None, 0
        yield

    network.nic(0).register_service("svc", handler)
    with pytest.raises(NetworkError):
        network.nic(0).register_service("svc", handler)


def test_duplicate_notify_channel_rejected():
    engine, network, endpoints = make_net()
    network.nic(0).register_notify_handler("chan", lambda m: None)
    with pytest.raises(NetworkError):
        network.nic(0).register_notify_handler("chan", lambda m: None)


def test_notify_wait_to_dead_node_raises():
    engine, network, (a, b, _c) = make_net()
    network.nic(1).register_notify_handler("chan", lambda m: None)
    outcome = []

    def sender():
        network.nic(1).fail()
        try:
            yield from a.notify(1, "chan", "x", wait=True)
        except RemoteNodeFailure:
            outcome.append("dead")

    engine.spawn(sender())
    engine.run()
    assert outcome == ["dead"]


def test_dead_nic_drops_queued_but_delivers_in_flight():
    """Messages already on the wire arrive; messages still queued at
    the dead sender are lost (the paper's 'no guarantee' case)."""
    params = NetworkParams(bandwidth_bytes_per_us=2.0,
                           post_queue_depth=16)
    engine, network, (a, b, _c) = make_net(params=params)
    region = network.nic(1).regions.export("buf", 64)

    def sender():
        # First message serializes (~48us at 2B/us) and gets onto the
        # wire; the rest sit in the post queue when the node dies.
        for i in range(5):
            yield from a.remote_deposit(1, "buf", i, bytes([i + 1]))

    engine.spawn(sender())
    engine.schedule(60.0, network.nic(0).fail)
    engine.run()
    data = region.read(0, 5)
    assert data[0] != 0, "in-flight message should have arrived"
    assert 0 in data[1:], "queued messages should have been lost"


def test_messages_to_self_rejected_at_fabric():
    engine, network, (a, b, _c) = make_net()
    from repro.net.message import Message, MessageKind
    with pytest.raises(NetworkError):
        network.transmit(Message(MessageKind.DEPOSIT, 1, 1, 0,
                                 payload=("buf", 0, b"")))


def test_probe_self_is_true_without_traffic():
    engine, network, (a, b, _c) = make_net()
    results = []

    def prober():
        results.append((yield from a.probe(0)))

    engine.spawn(prober())
    engine.run()
    assert results == [True]
    assert network.nic(0).messages_sent == 0
