"""Simulated network interface (Myrinet NIC running VMMC firmware).

The NIC owns a bounded *post queue* of outgoing messages. Hosts post
asynchronous sends into it; when it fills, the posting processor blocks
until the NIC drains it -- this back-pressure at release points is one
of the contention effects the paper measures. A sender process drains
the queue (NIC occupancy + wire serialization), then hands the message
to the :class:`~repro.net.network.Network` for latency and delivery.

On the receive side, deposits and fetches are serviced entirely at the
NIC -- writing into or reading from exported memory regions -- without
involving the host processor, mirroring VMMC's remote deposit/fetch.
A request (fetch, probe, service call) carries its sender's waiter as
its completion; the reply carries that waiter back and settles it with
the value, so no table of outstanding requests exists.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from repro.config import (BUS_BANDWIDTH_BYTES_PER_US, NIC_PER_MESSAGE_US,
                          POST_OVERHEAD_US, NetworkParams)
from repro.errors import NetworkError, RemoteNodeFailure
from repro.net.message import Message, MessageKind
from repro.net.regions import RegionTable
from repro.sim import Engine, Event, Mutex, Store
from repro.sim.resources import EMPTY

# Hoisted enum members: ``_dispatch`` runs per received message, and a
# module-global load + identity test beats two attribute loads there.
_DEPOSIT = MessageKind.DEPOSIT
_FETCH_REQ = MessageKind.FETCH_REQ
_FETCH_REPLY = MessageKind.FETCH_REPLY
_PROBE = MessageKind.PROBE
_PROBE_ACK = MessageKind.PROBE_ACK
_SERVICE_REQ = MessageKind.SERVICE_REQ
_SERVICE_REPLY = MessageKind.SERVICE_REPLY
_NOTIFY = MessageKind.NOTIFY


class NIC:
    """One node's network interface."""

    def __init__(self, engine: Engine, node_id: int, params: NetworkParams,
                 regions: Optional[RegionTable] = None,
                 dma_bus: Optional[Mutex] = None) -> None:
        self.engine = engine
        self.node_id = node_id
        self.params = params
        self.regions = regions if regions is not None else RegionTable(node_id)
        #: Memory-bus contention modelling: when ``dma_bus`` is set,
        #: every DMA transfer holds the bus for ``nbytes /
        #: BUS_BANDWIDTH_BYTES_PER_US`` microseconds.
        self.dma_bus = dma_bus
        self.alive = True
        self.network = None  # attached by Network.attach()
        #: Causal-trace sink (repro.obs.optrace.OpTracer) or None. Every
        #: tracing touch point is double-gated on ``msg.op is not None``
        #: -- always None with no tracer attached -- so the untraced
        #: receive path pays one comparison.
        self.optrace = None
        #: Nodes whose failure has been detected. VMMC unmaps the
        #: import/export connections to a failed node during
        #: reconfiguration, so anything it left on the wire (or already
        #: queued here) is discarded instead of being applied to
        #: exported memory after recovery has rebuilt it.
        self.dead_sources: Set[int] = set()

        self.post_queue = Store(engine, capacity=params.post_queue_depth,
                                name=f"nic{node_id}.post")
        #: Arrived messages awaiting NIC processing; the network puts
        #: into it.
        self.incoming = Store(engine, name=f"nic{node_id}.in")
        self.notify_handlers: Dict[str, Callable[[Message], None]] = {}
        self.services: Dict[str, Callable] = {}
        self._service_procs: list = []

        # Counters for the metrics layer.
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.post_queue_stalls = 0

        self._sender_proc = engine.spawn(self._sender(), f"nic{node_id}.send")
        self._receiver_proc = engine.spawn(self._receiver(), f"nic{node_id}.recv")

    # -- host-side API -----------------------------------------------------

    def post_charge(self) -> float:
        """Host-side cost of one post in microseconds; yield it.

        Split from :meth:`post_enqueue` so hot callers can post without
        a delegated generator: ``yield nic.post_charge()`` then check
        ``post_enqueue``. Raises when the NIC is down.
        """
        if not self.alive:
            raise NetworkError(f"node {self.node_id}: NIC is down")
        return POST_OVERHEAD_US

    def post_enqueue(self, msg: Message) -> Optional[Event]:
        """Enqueue a message after the post charge was paid.

        Returns ``None`` when the queue accepted the message, or the
        park event the caller must yield when the queue is full --
        the paper's full-NIC-queue stall of the posting processor.
        """
        queue = self.post_queue
        if queue.is_full:
            self.post_queue_stalls += 1
        ev = queue.put(msg)
        return None if ev._settled else ev

    def register_notify_handler(self, channel: str,
                                handler: Callable[[Message], None]) -> None:
        """Register a callback for NOTIFY messages on ``channel``.

        The handler runs at NIC level (after NIC occupancy is charged);
        it must be non-blocking (typically it writes protocol state or
        triggers an event a host process is waiting on).
        """
        if channel in self.notify_handlers:
            raise NetworkError(f"node {self.node_id}: notify channel "
                               f"{channel!r} already registered")
        self.notify_handlers[channel] = handler

    def register_service(self, name: str, handler: Callable) -> None:
        """Register a request/reply service.

        ``handler(payload, src_node)`` must be a *generator function*
        returning ``(reply_payload, reply_body_bytes)``. Each request is
        served by its own spawned process, so a handler may wait
        (deferred replies -- e.g. a barrier manager holding arrivals).
        Services model protocol operations offloaded to the NI, as
        GeNIMA does for synchronization.
        """
        if name in self.services:
            raise NetworkError(f"node {self.node_id}: service {name!r} "
                               "already registered")
        self.services[name] = handler

    def shun(self, node_id: int) -> None:
        """Tear down connections from a node declared failed.

        Late traffic from a fail-stopped node must never land: a
        deposit it posted just before dying can otherwise arrive
        *after* recovery has rebuilt the target region (observed as a
        dead node's lock-vector slot resurrecting after the recovery
        clear and wedging every later acquirer)."""
        self.dead_sources.add(node_id)

    def trace_send(self, msg: Message) -> None:
        """Record a causal-trace send hop for a stamped message.

        Callers gate on ``msg.op is not None`` so the untraced hot path
        pays one slot load + comparison and nothing else.
        """
        if self.optrace is not None:
            self.optrace.message_hop("send", msg, self.node_id,
                                     self.engine.now)

    # -- failure injection ---------------------------------------------------

    def fail(self) -> None:
        """Fail-stop this NIC: nothing further is sent or received.

        Messages already on the wire still arrive (they left this NIC);
        messages still in the post queue are lost -- the paper's "no
        guarantee of success for previous operations" case.
        """
        self.alive = False
        self._sender_proc.kill()
        self._receiver_proc.kill()
        for proc in self._service_procs:
            proc.kill()
        self._service_procs.clear()
        self.post_queue.drain()
        self.incoming.drain()

    # -- internal processes --------------------------------------------------

    def _sender(self):
        # Per-message loop: hoist everything fixed for the NIC's
        # lifetime out of it (params never change after construction).
        # ``get_nowait`` skips the Event allocation whenever a message
        # is already queued; the DMA bus charge is inlined (acquire /
        # hold for the transfer / release) instead of delegating to a
        # per-message generator. Each charge is a bare number of
        # microseconds yielded straight to the kernel.
        store = self.post_queue
        get_nowait = store.get_nowait
        get = store.get
        bus = self.dma_bus
        bandwidth = BUS_BANDWIDTH_BYTES_PER_US
        transfer_time_us = self.params.transfer_time_us
        while True:
            msg = get_nowait()
            if msg is EMPTY:
                msg = yield get()
            yield NIC_PER_MESSAGE_US
            if bus is not None:
                ev = bus.acquire()
                if not ev._settled:
                    yield ev
                try:
                    # Hold the bus for the transfer at its bandwidth.
                    yield msg.wire_bytes / bandwidth
                finally:
                    bus.release()
            yield transfer_time_us(msg.wire_bytes)
            self.messages_sent += 1
            self.bytes_sent += msg.wire_bytes
            self.network.transmit(msg)

    def _receiver(self):
        store = self.incoming
        get_nowait = store.get_nowait
        get = store.get
        bus = self.dma_bus
        bandwidth = BUS_BANDWIDTH_BYTES_PER_US
        dispatch = self._dispatch
        while True:
            msg = get_nowait()
            if msg is EMPTY:
                msg = yield get()
            yield NIC_PER_MESSAGE_US
            if bus is not None:
                ev = bus.acquire()
                if not ev._settled:
                    yield ev
                try:
                    # Hold the bus for the transfer at its bandwidth.
                    yield msg.wire_bytes / bandwidth
                finally:
                    bus.release()
            self.messages_received += 1
            follow = dispatch(msg)
            if follow is not None:
                yield from follow

    def _dispatch(self, msg: Message):
        """Apply one arrived message; returns a follow-up generator for
        the receiver to drive when the message needs to block (reply
        post into a full queue, generator NOTIFY handler), else None.

        A plain function rather than a generator: most kinds (deposits,
        replies, acks) never block, so the per-message generator
        allocation and delegation frame were pure overhead.
        """
        if msg.src in self.dead_sources:
            # In-flight remnant of a fail-stopped node: the connection
            # was unmapped when its failure was detected.
            if msg.completion is not None and not msg.completion.settled:
                msg.completion.fail(RemoteNodeFailure(msg.src))
            return None
        if msg.op is not None and self.optrace is not None:
            self.optrace.message_hop("recv", msg, self.node_id,
                                     self.engine.now)
        kind = msg.kind
        if kind is _DEPOSIT:
            region_name, offset, data = msg.payload
            self.regions.lookup(region_name).write(offset, data)
            if msg.completion is not None and not msg.completion.settled:
                msg.completion.succeed(None)
            return None
        if kind is _NOTIFY:
            channel, body = msg.payload
            handler = self.notify_handlers.get(channel)
            if handler is None:
                raise NetworkError(
                    f"node {self.node_id}: NOTIFY on unknown channel "
                    f"{channel!r}")
            result = handler(msg)
            if result is not None and hasattr(result, "send"):
                # Generator handler: run it inline at the NIC so its
                # costs serialize with message processing (FIFO apply
                # order is what HLRC diff application requires).
                return self._finish_notify(result, msg)
            if msg.completion is not None and not msg.completion.settled:
                msg.completion.succeed(None)
            return None
        if kind is _SERVICE_REPLY or kind is _FETCH_REPLY \
                or kind is _PROBE_ACK:
            # The requester's waiter rode out in the request and back
            # in the reply; it may already have failed or given up.
            waiter, value = msg.payload
            if not waiter.settled:
                waiter.succeed(value)
            return None
        if kind is _SERVICE_REQ:
            service = msg.payload[0]
            handler = self.services.get(service)
            if handler is None:
                raise NetworkError(
                    f"node {self.node_id}: unknown service {service!r}")
            proc = self.engine.spawn(self._serve(handler, msg),
                                     f"nic{self.node_id}.svc.{service}")
            self._service_procs.append(proc)
            self._service_procs = [p for p in self._service_procs if p.alive]
            return None
        if kind is _FETCH_REQ:
            region_name, offset, size = msg.payload
            data = self.regions.lookup(region_name).read(offset, size)
            return self._reply(msg, _FETCH_REPLY, len(data), data)
        if kind is _PROBE:
            return self._reply(msg, _PROBE_ACK, 0, True)
        raise NetworkError(f"unknown message kind {kind!r}")

    def _reply(self, request: Message, kind: str, body_bytes: int, value):
        """Answer ``request`` with ``value`` for the waiter it carries.

        Returns None once the reply is queued, else a generator that
        blocks until the full post queue accepts it.
        """
        reply = Message(kind, self.node_id, request.src, body_bytes,
                        payload=(request.completion, value), op=request.op)
        if reply.op is not None:
            self.trace_send(reply)
        if self.post_queue.try_put(reply):
            return None
        return self._post_blocking(reply)

    def _post_blocking(self, reply: Message):
        yield self.post_queue.put(reply)

    def _finish_notify(self, gen, msg: Message):
        yield from gen
        if msg.op is not None and self.optrace is not None:
            # Generator NOTIFY handlers are the diff-apply path: the
            # span from the "recv" hop to here is the apply cost.
            self.optrace.message_hop("applied", msg, self.node_id,
                                     self.engine.now)
        if msg.completion is not None and not msg.completion.settled:
            msg.completion.succeed(None)

    def _serve(self, handler, request: Message):
        service, body = request.payload
        op = request.op
        tracer = self.optrace if op is not None else None
        if tracer is not None:
            tracer.service_hop(op, "svc_begin", self.node_id,
                               self.engine.now, request.msg_id, service)
        value, reply_bytes = yield from handler(body, request.src)
        if tracer is not None:
            tracer.service_hop(op, "svc_end", self.node_id,
                               self.engine.now, request.msg_id, service)
        if not self.alive:
            return
        blocked = self._reply(request, _SERVICE_REPLY, reply_bytes, value)
        if blocked is not None:
            yield from blocked
