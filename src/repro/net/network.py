"""The switch fabric connecting node NICs.

The paper's cluster connects all eight nodes to one 8-way Myrinet
switch. We model the fabric as constant per-hop latency (sender NIC
already charged serialization time); per-pair FIFO order follows from
each sender serializing its own transmissions and constant latency.

The network is also the ground truth for node liveness: a message whose
destination is dead fails the sender-visible completion event after the
wire latency, matching the paper's assumption that "basic communication
operations return an error when the destination node is unreachable"
and that once an error is returned every later operation also fails.
"""

from __future__ import annotations

from typing import Dict

from repro.config import NetworkParams
from repro.errors import NetworkError, RemoteNodeFailure
from repro.net.message import Message
from repro.net.nic import NIC
from repro.sim import Engine


class Network:
    """Crossbar fabric with constant latency and failure semantics."""

    def __init__(self, engine: Engine, params: NetworkParams) -> None:
        self.engine = engine
        self.params = params
        self._nics: Dict[int, NIC] = {}

    def attach(self, nic: NIC) -> None:
        if nic.node_id in self._nics:
            raise NetworkError(f"node {nic.node_id} already attached")
        self._nics[nic.node_id] = nic
        nic.network = self

    def nic(self, node_id: int) -> NIC:
        try:
            return self._nics[node_id]
        except KeyError:
            raise NetworkError(f"no such node {node_id}") from None

    def transmit(self, msg: Message) -> None:
        """Accept a fully-serialized message from a sender NIC."""
        if msg.dst == msg.src:
            raise NetworkError(f"loopback message not allowed: {msg!r}")
        dst_nic = self.nic(msg.dst)

        def deliver() -> None:
            if dst_nic.alive:
                dst_nic.incoming.try_put(msg)
            elif msg.completion is not None and not msg.completion.settled:
                msg.completion.fail(RemoteNodeFailure(msg.dst))

        self.engine.schedule(self.params.wire_latency_us, deliver)
