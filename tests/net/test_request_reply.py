"""A request's reply settles the waiter the request carried.

Fetches, probes and service calls send their waiter out as the
request's completion; the server's reply brings it back in its payload
and settles it with the value. These tests pin the three ways that
path can be stretched: a slow server, a reply from a server already
declared dead, and a reply posted into a full post queue.
"""

import repro.net.vmmc as vmmc_mod
from repro.config import HEARTBEAT_TIMEOUT_US, NetworkParams
from repro.errors import RemoteNodeFailure
from repro.net import MessageKind

from tests.net.test_network import make_cluster_net

HEARTBEAT_US = HEARTBEAT_TIMEOUT_US


def record_transmits(network):
    """Wrap the fabric; returns the list of ``(now, kind, src, dst)``
    it sees."""
    sent = []
    transmit = network.transmit

    def recording(msg):
        sent.append((network.engine.now, msg.kind, msg.src, msg.dst))
        transmit(msg)

    network.transmit = recording
    return sent


def test_slow_service_is_probed_and_answered_on_the_same_waiter():
    engine, network, (a, b) = make_cluster_net()

    def handler(body, src):
        yield 3 * HEARTBEAT_US
        return ("done", body), 16

    network.nic(1).register_service("slow", handler)
    sent = record_transmits(network)
    results = []

    def caller():
        results.append((yield from a.call(1, "slow", 7)))
        results.append(engine.now)

    engine.spawn(caller())
    engine.run()
    value, finished_at = results
    assert value == ("done", 7)
    assert finished_at > 3 * HEARTBEAT_US
    # The caller timed out twice, probed the (live) server each time,
    # and the reply arrived during its third wait: one request, two
    # probes from node 0; two acks and the reply from node 1.
    assert [kind for _t, kind, src, _d in sent if src == 0] == [
        MessageKind.SERVICE_REQ, MessageKind.PROBE, MessageKind.PROBE]
    assert [kind for _t, kind, src, _d in sent if src == 1] == [
        MessageKind.PROBE_ACK, MessageKind.PROBE_ACK,
        MessageKind.SERVICE_REPLY]
    assert not a.known_dead


def test_reply_from_a_shunned_server_is_dropped_until_the_probe_fails():
    """The reply is not the waiter's completion: a shunned source's
    completions fail on arrival, but its reply must only be dropped,
    and the caller learns of the death from its heart-beat probe."""
    engine, network, (a, b) = make_cluster_net()

    def handler(body, src):
        return "answer", 8
        yield  # pragma: no cover

    network.nic(1).register_service("echo", handler)
    sent = record_transmits(network)
    transmit = network.transmit

    def kill_server_behind_its_reply(msg):
        transmit(msg)
        if msg.kind is MessageKind.SERVICE_REPLY:
            # The reply is on the wire; the server dies and the
            # requester's NIC unmaps it before the reply lands.
            def kill():
                network.nic(1).fail()
                network.nic(0).shun(1)
            engine.schedule(0.0, kill)

    network.transmit = kill_server_behind_its_reply
    outcome = []

    def caller():
        try:
            outcome.append((yield from a.call(1, "echo", None)))
        except RemoteNodeFailure as exc:
            outcome.append((exc.node_id, engine.now))

    engine.spawn(caller())
    engine.run()
    (reply_at,) = [t for t, kind, _s, _d in sent
                   if kind is MessageKind.SERVICE_REPLY]
    (probe_at,) = [t for t, kind, _s, _d in sent
                   if kind is MessageKind.PROBE]
    [(dead, raised_at)] = outcome
    assert dead == 1
    # Not on the reply's arrival (one wire latency after it left), but
    # one heart-beat timeout into the wait, once the probe has failed.
    assert raised_at > probe_at > HEARTBEAT_US > reply_at
    assert network.nic(0).messages_received == 1  # the dropped reply
    assert 1 in a.known_dead


def test_service_reply_into_a_full_post_queue_blocks_then_is_delivered(
        monkeypatch):
    params = NetworkParams(post_queue_depth=1, bandwidth_bytes_per_us=1.0)
    # No probes: one path.
    monkeypatch.setattr(vmmc_mod, "HEARTBEAT_TIMEOUT_US", 1e6)
    engine, network, (a, b) = make_cluster_net(params=params)
    network.nic(0).regions.export("buf", 1024)
    queue = network.nic(1).post_queue
    full_when_replying = []

    def handler(body, src):
        # The first deposit goes straight to the NIC's sender, which
        # spends ~1056 us on the wire; the second fills the queue.
        for _ in range(2):
            yield from b.remote_deposit(0, "buf", 0, b"d" * 1024)
        full_when_replying.append(queue.is_full)
        return "late", 8

    network.nic(1).register_service("svc", handler)
    sent = record_transmits(network)
    results = []

    def caller():
        results.append((yield from a.call(1, "svc", None)))

    engine.spawn(caller())
    engine.run()
    assert full_when_replying == [True]
    assert results == ["late"]
    assert [kind for _t, kind, src, _d in sent if src == 1] == [
        MessageKind.DEPOSIT, MessageKind.DEPOSIT,
        MessageKind.SERVICE_REPLY]
