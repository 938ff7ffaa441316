"""Network message representation.

Messages are small typed envelopes. Data-carrying kinds (deposits,
fetch replies) hold real bytes; control kinds carry structured payloads.
Sizes on the wire are ``header + body`` so that bandwidth and NIC
occupancy modelling sees realistic message sizes.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

#: Bytes of header/envelope per message on the wire.
HEADER_BYTES = 32

_next_message_id = itertools.count(1).__next__


class MessageKind:
    """Message kind tags understood by the NIC dispatch table."""

    DEPOSIT = "deposit"          # remote write into an exported region
    FETCH_REQ = "fetch_req"      # read an exported region
    FETCH_REPLY = "fetch_reply"
    PROBE = "probe"              # liveness probe (heart-beat)
    PROBE_ACK = "probe_ack"
    NOTIFY = "notify"            # protocol-level notification (mailbox)
    SERVICE_REQ = "service_req"    # request/reply protocol service
    SERVICE_REPLY = "service_reply"


class Message:
    """One message on the simulated wire.

    A ``__slots__`` class rather than a dataclass: messages are the
    highest-volume allocation on the NIC hot loops, and the slot layout
    drops the per-instance ``__dict__``. ``wire_bytes`` is precomputed
    (it is read several times per message: sender serialization,
    receiver occupancy, DMA charge, byte counters) and ``msg_id`` comes
    from a bound counter instead of a ``default_factory`` lambda.
    """

    __slots__ = ("kind", "src", "dst", "body_bytes", "payload",
                 "completion", "msg_id", "wire_bytes", "op")

    def __init__(self, kind: str, src: int, dst: int, body_bytes: int,
                 payload: Any = None,
                 completion: Optional[Any] = None,
                 op: Optional[int] = None) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.body_bytes = body_bytes
        self.payload = payload
        #: Optional completion event: succeeds once the message's effect
        #: has been applied at the destination, or with the value of the
        #: reply to a request; fails with RemoteNodeFailure if the
        #: destination is (or becomes) dead. It is the sender's waiter:
        #: a reply carries it back in its payload, never as its own
        #: completion. Asynchronous senders leave it None and rely on
        #: FIFO ordering plus later synchronous ops.
        self.completion = completion
        self.msg_id = _next_message_id()
        self.wire_bytes = HEADER_BYTES + body_bytes
        #: Causal-trace operation id (repro.obs.optrace). None on every
        #: untraced message; the NIC copies it onto replies so one
        #: logical operation's messages share an id across nodes. Rides
        #: inside the modelled 32-byte header -- no wire-size change.
        self.op = op

    def __repr__(self) -> str:  # compact, for traces
        return (f"<msg#{self.msg_id} {self.kind} {self.src}->{self.dst} "
                f"{self.body_bytes}B>")
