"""Centralized barrier manager.

All-to-all internode synchronization (paper section 3.2): each node's
last-arriving thread commits its interval, propagates diffs, and sends
an arrival carrying its vector timestamp and the write notices of every
interval the other nodes may not yet have seen. The manager (lowest
live node) merges timestamps, unions the notices, and releases everyone
with the result.

During recovery the manager can *abort* in-flight barrier generations:
waiters receive the sentinel reply ``("aborted", ...)`` and re-enter the
barrier after recovery completes (section 4.5 requires a global
synchronization before recovery actions).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import BARRIER_PER_NODE_US, HEARTBEAT_TIMEOUT_US
from repro.protocol.timestamps import VectorTimestamp
from repro.sim import Event

BARRIER_SERVICE = "svm_barrier"

#: Reply payload marker for aborted barrier generations.
ABORTED = "aborted"
#: Reply payload marker: the caller's generation already completed
#: (its original reply died with a failed manager; everything the reply
#: would have carried was re-distributed by the recovery exchange).
STALE_DONE = "stale_done"


class _Generation:
    __slots__ = ("arrivals", "event", "result")

    def __init__(self, engine) -> None:
        self.arrivals: List[Tuple[int, bytes, list]] = []
        self.event = Event(engine, "barrier.gen")
        self.result = None


class BarrierManager:
    """Registered on the manager node's agent."""

    def __init__(self, agent, runtime) -> None:
        self.agent = agent
        self.runtime = runtime
        self.engine = agent.engine
        self._generations: Dict[int, _Generation] = {}
        #: Completed generation count per barrier id (survives via the
        #: agent's barrier_done when the manager role moves).
        self._completed: Dict[int, int] = {}
        agent.register_service(BARRIER_SERVICE, self._serve)

    def _generation(self, barrier_id: int) -> _Generation:
        gen = self._generations.get(barrier_id)
        if gen is None:
            gen = _Generation(self.engine)
            self._generations[barrier_id] = gen
        return gen

    def _serve(self, body, src: int):
        barrier_id, node, gen_no, ts_blob, entries = body
        manager = self.runtime.recovery_manager
        if manager is not None and manager.active is not None:
            # Recovery in progress: turn the arrival away so the caller
            # parks at the rendezvous and re-arrives afterwards (its
            # pending release work has already completed by the time it
            # reaches the barrier, satisfying section 4.5.2's
            # no-pending-releases precondition).
            return (ABORTED, []), 8
        completed = max(self._completed.get(barrier_id, 0),
                        self.agent.barrier_done.get(barrier_id, 0))
        if gen_no < completed:
            # The caller's generation finished earlier but its reply
            # died with the previous manager node.
            return (STALE_DONE, []), 8
        gen = self._generation(barrier_id)
        gen.arrivals.append((node, ts_blob, entries))
        if (self.runtime.recovery_manager is not None
                and len(gen.arrivals) == 1):
            # FT: watch this generation for missing participants -- a
            # node that dies while others sit at the barrier would
            # otherwise never be detected (nobody talks to it).
            self.agent.node.spawn(self._watchdog(gen),
                                  f"barwatch{barrier_id}")
        yield BARRIER_PER_NODE_US
        expected = self.runtime.expected_barrier_nodes()
        if len(gen.arrivals) >= expected and not gen.event.settled:
            self._release(barrier_id, gen)
        yield gen.event
        reply = gen.result
        size = self._reply_bytes(reply)
        return reply, size

    def _watchdog(self, gen: _Generation):
        from repro.sim import timeout_wait
        while not gen.event.settled:
            ok, _value = yield from timeout_wait(
                gen.event, HEARTBEAT_TIMEOUT_US * 3)
            if ok or gen.event.settled:
                return
            arrived = {node for node, _ts, _e in gen.arrivals}
            missing = self.runtime.expected_barrier_node_ids() - arrived
            # Reporting a dead node aborts this generation, which ends
            # the (lazy) suspicion and the watch.
            yield from self.agent.suspect(
                node for node in sorted(missing) if not gen.event.settled)

    def _release(self, barrier_id: int, gen: _Generation) -> None:
        num_nodes = self.agent.config.num_nodes
        merged = VectorTimestamp(num_nodes)
        union: List[Tuple[int, int, List[int]]] = []
        for node, ts_blob, entries in gen.arrivals:
            merged.merge(VectorTimestamp.decode(num_nodes, ts_blob))
            for interval, pages in entries:
                union.append((node, interval, pages))
        gen.result = (merged.encode(), union)
        # Next arrival at this id starts a fresh generation.
        self._generations.pop(barrier_id)
        self._completed[barrier_id] = max(
            self._completed.get(barrier_id, 0),
            self.agent.barrier_done.get(barrier_id, 0)) + 1
        gen.event.succeed(None)

    def _reply_bytes(self, reply) -> int:
        if reply[0] == ABORTED:
            return 8
        merged_blob, union = reply
        return len(merged_blob) + sum(
            8 * (1 + len(pages)) for _n, _i, pages in union)

    def abort_pending(self) -> None:
        """Recovery: release every in-flight generation with the abort
        sentinel so participants can reach the recovery rendezvous."""
        pending, self._generations = self._generations, {}
        for gen in pending.values():
            gen.result = (ABORTED, [])
            if not gen.event.settled:
                gen.event.succeed(None)
