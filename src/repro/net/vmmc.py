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

Every operation is one posted message (:meth:`VMMC._send`). A waiting
send carries its waiter as the message's completion: the destination
settles it when the effect is applied, or its reply settles it with
the value. While waiting the caller "sends heart-beats" every timeout
period; a dead peer surfaces as :class:`RemoteNodeFailure`.
"""

from __future__ import annotations

from typing import Optional

from repro.config import CONTROL_MESSAGE_BYTES, HEARTBEAT_TIMEOUT_US
from repro.errors import RemoteNodeFailure
from repro.net.message import Message, MessageKind
from repro.net.nic import NIC
from repro.sim import Engine, Event, timeout_wait


class VMMC:
    """Per-node communication endpoint."""

    def __init__(self, engine: Engine, nic: NIC) -> None:
        self.engine = engine
        self.nic = nic
        self._reply_name = f"nic{nic.node_id}.reply"
        #: Failure-detector memory: nodes this endpoint has seen fail.
        self.known_dead: set[int] = set()

    @property
    def node_id(self) -> int:
        return self.nic.node_id

    def _send(self, kind: str, dst: int, body_bytes: int, payload,
              waiter: Optional[Event] = None, op: Optional[int] = None):
        """Post one message to ``dst``. Generator; with a ``waiter`` it
        returns the waiter's value, under heart-beat failure detection.
        """
        if dst in self.known_dead:
            raise RemoteNodeFailure(dst, "previously detected")
        nic = self.nic
        msg = Message(kind, nic.node_id, dst, body_bytes, payload,
                      completion=waiter, op=op)
        if op is not None:
            nic.trace_send(msg)
        yield nic.post_charge()
        park = nic.post_enqueue(msg)
        if park is not None:
            yield park
        if waiter is None:
            return None
        return (yield from self._await_response(dst, waiter))

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
        return self._send(MessageKind.DEPOSIT, dst, len(data),
                          (region, offset, bytes(data)),
                          Event(self.engine, "deposit.wait") if wait
                          else None, op)

    def remote_fetch(self, dst: int, region: str, offset: int, size: int,
                     op: Optional[int] = None):
        """Fetch ``size`` bytes from ``region[offset]`` on node ``dst``.

        Generator returning the bytes. Raises :class:`RemoteNodeFailure`
        if the peer is dead (detected via the heart-beat mechanism).
        """
        return self._send(MessageKind.FETCH_REQ, dst, CONTROL_MESSAGE_BYTES,
                          (region, offset, size),
                          Event(self.engine, self._reply_name), op)

    def notify(self, dst: int, channel: str, body: object,
               body_bytes: Optional[int] = None, wait: bool = False,
               op: Optional[int] = None):
        """Send a small control message to a NIC-level handler on ``dst``."""
        return self._send(MessageKind.NOTIFY, dst,
                          CONTROL_MESSAGE_BYTES if body_bytes is None
                          else body_bytes,
                          (channel, body),
                          Event(self.engine, "notify.wait") if wait
                          else None, op)

    def call(self, dst: int, service: str, body: object,
             request_bytes: Optional[int] = None,
             op: Optional[int] = None):
        """Synchronous request/reply against a registered remote service.

        Generator returning the reply payload. Heart-beat failure
        detection applies while waiting, as for fetches.
        """
        return self._send(MessageKind.SERVICE_REQ, dst,
                          CONTROL_MESSAGE_BYTES
                          if request_bytes is None else request_bytes,
                          (service, body),
                          Event(self.engine, self._reply_name), op)

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
        nic = self.nic
        ack = Event(self.engine, self._reply_name)
        msg = Message(MessageKind.PROBE, nic.node_id, dst, 0, completion=ack)
        yield nic.post_charge()
        park = nic.post_enqueue(msg)
        if park is not None:
            yield park
        try:
            ok, _value = yield from timeout_wait(ack, HEARTBEAT_TIMEOUT_US * 4)
        except RemoteNodeFailure:
            ok = False  # the fabric failed the probe: destination is down
        if not ok:
            # Failed, or no answer at all: dead either way (the network
            # cannot partition, per the paper's assumptions).
            self.known_dead.add(dst)
        return ok

    def _await_response(self, dst: int, event: Event):
        """Wait on ``event``, probing ``dst`` each heart-beat timeout.

        Returns the event value; raises RemoteNodeFailure if the peer
        dies first.
        """
        while True:
            try:
                ok, value = yield from timeout_wait(
                    event, HEARTBEAT_TIMEOUT_US)
            except RemoteNodeFailure:
                self.known_dead.add(dst)
                raise
            if ok:
                return value
            if not (yield from self.probe(dst)):
                raise RemoteNodeFailure(dst, "heart-beat timeout")
