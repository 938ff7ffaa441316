"""VMMC: the user-level communication API the SVM protocol is built on.

Provides the operations from paper section 3.1:

* :meth:`VMMC.remote_deposit` -- asynchronously write data into an
  exported region of a remote node's memory (no remote host involvement).
* :meth:`VMMC.remote_fetch` -- synchronously read an exported region.
* :meth:`VMMC.notify` -- small control message delivered to a registered
  NIC-level handler (models GeNIMA's use of NI support to avoid
  asynchronous host message handling).
* :meth:`VMMC.probe` -- liveness probe used by the heart-beat failure
  detector of section 4.1.

Synchronous operations embody the paper's failure-detection contract:
while waiting for a response the caller "sends heart-beats" every
timeout period; a dead peer surfaces as :class:`RemoteNodeFailure`.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.config import CostModel
from repro.errors import RemoteNodeFailure
from repro.net.message import Message, MessageKind
from repro.net.nic import NIC
from repro.sim import Engine, Event, timeout_wait


class VMMC:
    """Per-node communication endpoint."""

    def __init__(self, engine: Engine, nic: NIC, costs: CostModel) -> None:
        self.engine = engine
        self.nic = nic
        self.costs = costs
        self._req_ids = itertools.count(1)
        #: Failure-detector memory: nodes this endpoint has seen fail.
        self.known_dead: set[int] = set()

    @property
    def node_id(self) -> int:
        return self.nic.node_id

    def _check_peer(self, dst: int) -> None:
        if dst in self.known_dead:
            raise RemoteNodeFailure(dst, "previously detected")

    def _trace_send(self, msg: Message) -> None:
        """Record a causal-trace send hop for a stamped message.

        Callers gate on ``msg.op is not None`` so the untraced hot path
        pays one slot load + comparison and nothing else.
        """
        tracer = self.nic.optrace
        if tracer is not None:
            tracer.message_hop("send", msg, self.node_id, self.engine.now)

    # -- data movement -----------------------------------------------------

    def remote_deposit(self, dst: int, region: str, offset: int,
                       data: bytes, wait: bool = False,
                       op: Optional[int] = None):
        """Deposit ``data`` at ``region[offset]`` on node ``dst``.

        Generator. With ``wait=False`` (the common case -- GeNIMA sends
        diffs with asynchronous remote deposits) it returns as soon as
        the message is posted; FIFO ordering to the same destination is
        guaranteed by the NIC. With ``wait=True`` it returns once the
        data is in remote memory and raises :class:`RemoteNodeFailure`
        if the peer is dead.
        """
        self._check_peer(dst)
        completion: Optional[Event] = None
        if wait:
            completion = Event(self.engine, "deposit.wait")
        msg = Message(MessageKind.DEPOSIT, self.node_id, dst,
                      body_bytes=len(data),
                      payload=(region, offset, bytes(data)),
                      completion=completion, op=op)
        if op is not None:
            self._trace_send(msg)
        nic = self.nic
        yield nic.post_charge()
        park = nic.post_enqueue(msg)
        if park is not None:
            yield park
        if completion is not None:
            yield from self._await_response(dst, completion)
        return None

    def remote_fetch(self, dst: int, region: str, offset: int, size: int,
                     op: Optional[int] = None):
        """Fetch ``size`` bytes from ``region[offset]`` on node ``dst``.

        Generator returning the bytes. Raises :class:`RemoteNodeFailure`
        if the peer is dead (detected via the heart-beat mechanism).
        """
        self._check_peer(dst)
        req_id = next(self._req_ids)
        reply = self.nic.expect_reply(req_id)
        msg = Message(MessageKind.FETCH_REQ, self.node_id, dst,
                      body_bytes=self.nic.params.control_message_bytes,
                      payload=(region, offset, size, req_id),
                      completion=reply, op=op)
        if op is not None:
            self._trace_send(msg)
        nic = self.nic
        yield nic.post_charge()
        park = nic.post_enqueue(msg)
        if park is not None:
            yield park
        try:
            data = yield from self._await_response(dst, reply)
        finally:
            self.nic.abandon_reply(req_id)
        return data

    def notify(self, dst: int, channel: str, body: object,
               body_bytes: Optional[int] = None, wait: bool = False,
               op: Optional[int] = None):
        """Send a small control message to a NIC-level handler on ``dst``."""
        self._check_peer(dst)
        completion: Optional[Event] = None
        if wait:
            completion = Event(self.engine, "notify.wait")
        size = (body_bytes if body_bytes is not None
                else self.nic.params.control_message_bytes)
        msg = Message(MessageKind.NOTIFY, self.node_id, dst,
                      body_bytes=size, payload=(channel, body),
                      completion=completion, op=op)
        if op is not None:
            self._trace_send(msg)
        nic = self.nic
        yield nic.post_charge()
        park = nic.post_enqueue(msg)
        if park is not None:
            yield park
        if completion is not None:
            yield from self._await_response(dst, completion)
        return None

    def call(self, dst: int, service: str, body: object,
             request_bytes: Optional[int] = None,
             op: Optional[int] = None):
        """Synchronous request/reply against a registered remote service.

        Generator returning the reply payload. Heart-beat failure
        detection applies while waiting, as for fetches.
        """
        self._check_peer(dst)
        req_id = next(self._req_ids)
        reply = self.nic.expect_reply(req_id)
        size = (request_bytes if request_bytes is not None
                else self.nic.params.control_message_bytes)
        msg = Message(MessageKind.SERVICE_REQ, self.node_id, dst,
                      body_bytes=size, payload=(service, req_id, body),
                      completion=reply, op=op)
        if op is not None:
            self._trace_send(msg)
        nic = self.nic
        yield nic.post_charge()
        park = nic.post_enqueue(msg)
        if park is not None:
            yield park
        try:
            result = yield from self._await_response(dst, reply)
        finally:
            self.nic.abandon_reply(req_id)
        return result

    # -- failure detection ---------------------------------------------------

    def probe(self, dst: int):
        """Liveness probe: generator returning True (alive) or False.

        A dead destination fails the probe's completion event at the
        fabric, so a probe resolves in one round trip either way; a peer
        that is alive but slow is retried until the fabric answers.
        """
        if dst == self.node_id:
            return True  # probing ourselves: trivially alive
        if dst in self.known_dead:
            return False
        req_id = next(self._req_ids)
        reply = self.nic.expect_reply(req_id)
        msg = Message(MessageKind.PROBE, self.node_id, dst,
                      body_bytes=0, payload=req_id, completion=reply)
        nic = self.nic
        yield nic.post_charge()
        park = nic.post_enqueue(msg)
        if park is not None:
            yield park
        try:
            ok, _value = yield from timeout_wait(
                self.engine, reply, self.costs.heartbeat_timeout_us * 4)
        except RemoteNodeFailure:
            # The fabric failed the probe: destination is down.
            self.known_dead.add(dst)
            return False
        finally:
            self.nic.abandon_reply(req_id)
        if not ok:
            # No answer and no explicit failure: treat as dead (the
            # network cannot partition, per the paper's assumptions).
            self.known_dead.add(dst)
            return False
        return True

    def _await_response(self, dst: int, event: Event):
        """Wait on ``event``, probing ``dst`` each heart-beat timeout.

        Returns the event value; raises RemoteNodeFailure if the peer
        dies first.
        """
        while True:
            try:
                ok, value = yield from timeout_wait(
                    self.engine, event, self.costs.heartbeat_timeout_us)
            except RemoteNodeFailure:
                self.known_dead.add(dst)
                raise
            if ok:
                return value
            if not (yield from self.probe(dst)):
                raise RemoteNodeFailure(dst, "heart-beat timeout")
