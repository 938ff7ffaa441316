"""Lock synchronization algorithms (paper sections 3.2 and 4.3).

Two algorithms, each usable by the base and the extended protocol:

* :class:`QueueingLocks` -- GeNIMA's distributed queue lock. Each lock
  has a home that records only the *tail* of a virtual requester queue;
  requests are forwarded to the latest requester, and the previous
  holder grants directly to the next. Low traffic, but stateful -- the
  paper found its fault-tolerant variant prohibitively complex.

* :class:`PollingLocks` -- the paper's replacement: a centralized,
  *stateless* lock. Each lock is a per-node byte vector at its home;
  to acquire, a node writes 1 into its slot and reads back the whole
  vector: sole non-zero slot means acquired, otherwise reset and retry
  with randomized exponential backoff (avoiding livelock). Contention
  is higher, recovery is trivial.

Both provide intra-SMP handoff without any messages ("equivalent to a
few assembly instructions"), and both have fault-tolerant variants that
replicate lock state (the polling vector and the lock timestamp) to a
secondary home on every global acquire and release.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, Optional

from repro.config import LOCK_BACKOFF_MAX_US, LOCK_BACKOFF_MIN_US, LOCK_OP_US
from repro.errors import ProtocolError
from repro.protocol.timestamps import VectorTimestamp
from repro.sim import Event

#: Region names exported by every node (any node can be a lock home).
LOCKVEC_REGION = "lockvec"
LOCKTS_REGION = "lockts"
#: Notify channel used by the queueing algorithm.
QLOCK_CHANNEL = "qlock"
QLOCK_SERVICE = "qlock"
QLOCK_MIRROR_CHANNEL = "qlock_mirror"


class _Status(enum.Enum):
    IDLE = 0        # this node does not hold and is not acquiring
    ACQUIRING = 1   # one local thread is acquiring globally
    HELD = 2        # a local thread holds the lock


class _NodeLockState:
    """Per-(node, lock) state enabling message-free intra-SMP handoff."""

    __slots__ = ("status", "waiters", "next_requester", "next_event",
                 "grant_event", "grant_ts")

    def __init__(self) -> None:
        self.status = _Status.IDLE
        self.waiters: Deque[Event] = deque()
        #: Queueing lock: successor forwarded by the home (we are tail).
        self.next_requester: Optional[int] = None
        self.next_event: Optional[Event] = None
        #: Queueing lock: wait for the direct grant from the previous
        #: holder (kept separate from next_event -- while queued we can
        #: simultaneously become the tail and receive a "next").
        self.grant_event: Optional[Event] = None
        self.grant_ts: Optional[VectorTimestamp] = None


class LockManagerBase:
    """Intra-node layer shared by both algorithms.

    The protocol agent calls :meth:`acquire`/:meth:`release`; the
    subclass implements the global (:meth:`_global_acquire` /
    :meth:`_global_release`) part.
    """

    def __init__(self, agent) -> None:
        self.agent = agent
        self.engine = agent.engine
        self._states: Dict[int, _NodeLockState] = {}

    def _state(self, lock_id: int) -> _NodeLockState:
        st = self._states.get(lock_id)
        if st is None:
            st = _NodeLockState()
            self._states[lock_id] = st
        return st

    def acquire(self, lock_id: int, op: Optional[int] = None):
        """Generator returning the grant timestamp (None when no
        consistency action is needed: first-ever acquire or intra-node
        handoff). ``op`` is the causal-trace operation id, stamped onto
        the global acquire's messages (intra-node handoff sends none)."""
        st = self._state(lock_id)
        self.agent.counters.lock_acquires += 1
        while True:
            if st.status is _Status.IDLE:
                st.status = _Status.ACQUIRING
                try:
                    ts = yield from self._global_acquire(lock_id, op)
                except BaseException:
                    st.status = _Status.IDLE
                    self._wake_local_waiters(lock_id)
                    raise
                st.status = _Status.HELD
                st.grant_ts = ts
                return ts
            # A local thread holds or is acquiring: queue locally. A
            # "handoff" wake means we own the lock without messages or
            # invalidations (same node => updates already visible); a
            # "retry" wake means the holder released globally (or its
            # acquire aborted) and we must contend from scratch.
            # Named per lock so stall diagnostics (the obs watchdog's
            # wait-for graph) can tell which lock the thread queues on.
            ev = Event(self.engine, f"lock{lock_id}.localwait")
            st.waiters.append(ev)
            outcome = yield from self.agent.blocked_wait(ev)
            if outcome == "handoff":
                return None

    def _wake_local_waiters(self, lock_id: int) -> None:
        """Wake queued local waiters to re-contend (the lock left this
        node, or the in-progress acquire aborted)."""
        st = self._state(lock_id)
        while st.waiters:
            st.waiters.popleft().succeed("retry")

    def release(self, lock_id: int, ts: VectorTimestamp):
        """Generator. ``ts`` is the releasing node's (just committed)
        vector timestamp, handed to the next acquirer."""
        st = self._state(lock_id)
        if st.status is not _Status.HELD:
            raise ProtocolError(
                f"node {self.agent.node_id}: release of lock {lock_id} "
                "not held")
        if st.waiters:
            # Intra-SMP handoff: no messages (paper section 3.2 / 4.3).
            st.waiters.popleft().succeed("handoff")
            return
        # Keep HELD until the global release completes: if it fails
        # against a dying lock home, the recovery retry re-enters here
        # and must still own the lock (deposits are idempotent).
        yield from self._global_release(lock_id, ts)
        st.status = _Status.IDLE
        # Anyone who queued while the global release was in flight must
        # now contend globally.
        self._wake_local_waiters(lock_id)

    # -- subclass interface ---------------------------------------------------

    def _global_acquire(self, lock_id: int, op: Optional[int] = None):
        raise NotImplementedError
        yield  # pragma: no cover

    def _global_release(self, lock_id: int, ts: VectorTimestamp):
        raise NotImplementedError
        yield  # pragma: no cover


class PollingLocks(LockManagerBase):
    """Centralized polling lock (the extended protocol's choice).

    With ``replicate=True`` every global acquire/release also updates
    the secondary lock home, so that after a failure the surviving home
    carries current state and "lock synchronization can resume directly
    using the two new lock homes" (section 4.5.1).
    """

    def __init__(self, agent, replicate: bool = False) -> None:
        super().__init__(agent)
        self.replicate = replicate

    # Region layout helpers ----------------------------------------------------

    def _vec_base(self, lock_id: int) -> int:
        return lock_id * self.agent.config.num_nodes

    def _ts_size(self) -> int:
        return 4 * self.agent.config.num_nodes

    # Recovery rebuilds the same two regions from outside any one
    # node's manager, hence static.

    @staticmethod
    def clear_slots(regions, num_nodes: int, dead) -> None:
        """Zero the slot of every node in ``dead`` in all lock vectors
        of one node's ``regions``."""
        vec = regions.lookup(LOCKVEC_REGION).view()
        for node in dead:
            vec[node::num_nodes] = bytes(
                len(range(node, len(vec), num_nodes)))

    @staticmethod
    def copy_state(src_regions, dst_regions, num_nodes: int,
                   lock_id: int) -> None:
        """Copy one lock's vector and timestamp between two nodes."""
        for name, size in ((LOCKVEC_REGION, num_nodes),
                           (LOCKTS_REGION, 4 * num_nodes)):
            dst_regions.lookup(name).write(
                lock_id * size,
                src_regions.lookup(name).read(lock_id * size, size))

    def _homes(self, lock_id: int) -> list[int]:
        homes = [self.agent.homes.lock_primary(lock_id)]
        if self.replicate:
            homes.append(self.agent.homes.lock_secondary(lock_id))
        return homes

    def _global_acquire(self, lock_id: int, op: Optional[int] = None):
        agent = self.agent
        n = agent.config.num_nodes
        me = agent.node_id
        vec_base = self._vec_base(lock_id)
        backoff = LOCK_BACKOFF_MIN_US
        while True:
            # The agent aborts synchronization when recovery is pending;
            # polling loops are the paper's natural abort points.
            agent.check_recovery_abort()
            home = agent.homes.lock_primary(lock_id)
            yield LOCK_OP_US
            yield from agent.deposit(
                home, LOCKVEC_REGION, vec_base + me,
                b"\x01", wait=True, op=op)
            vec = yield from agent.fetch(
                home, LOCKVEC_REGION, vec_base, n, op=op)
            # "Any slot other than mine non-zero" via C-level byte
            # counting (the generator version dominated the poll loop).
            contended = (n - vec.count(0) - (1 if vec[me] else 0)) > 0
            if not contended:
                break
            agent.counters.lock_retries += 1
            yield from agent.deposit(
                home, LOCKVEC_REGION, vec_base + me,
                b"\x00", wait=True, op=op)
            # A dead lock holder leaves its slot set forever; after a
            # while, suspect the apparent holders (section 4.1's
            # heart-beat principle applied to lock spinning).
            if agent.counters.lock_retries % 8 == 0:
                yield from agent.suspect(
                    other for other in range(n)
                    if other != me and vec[other])
                agent.check_recovery_abort()
            jitter = 0.5 + agent.rng.random()
            yield backoff * jitter
            backoff = min(backoff * 2.0, LOCK_BACKOFF_MAX_US)
        # Acquired: replicate holder state, then read the lock timestamp.
        if self.replicate:
            secondary = agent.homes.lock_secondary(lock_id)
            yield from agent.deposit(
                secondary, LOCKVEC_REGION, self._vec_base(lock_id) + me,
                b"\x01", wait=True, op=op)
        blob = yield from agent.fetch(
            home, LOCKTS_REGION, lock_id * self._ts_size(), self._ts_size(),
            op=op)
        if blob == bytes(self._ts_size()):
            return None  # first acquire ever: nothing to invalidate
        return VectorTimestamp.decode(n, blob)

    def _global_release(self, lock_id: int, ts: VectorTimestamp):
        agent = self.agent
        me = agent.node_id
        blob = ts.encode()
        # Secondary first, primary last: the copy that acquirers consult
        # is updated last, the same serialization rule as page diffs.
        for home in reversed(self._homes(lock_id)):
            # FIFO per destination orders the timestamp before the slot
            # clear, so a winner always reads a current timestamp.
            yield from agent.deposit(
                home, LOCKTS_REGION, lock_id * self._ts_size(), blob)
            yield from agent.deposit(
                home, LOCKVEC_REGION, self._vec_base(lock_id) + me, b"\x00")
        yield LOCK_OP_US


class QueueingLocks(LockManagerBase):
    """GeNIMA's distributed queueing lock.

    The home records the queue tail; requests forward to the previous
    tail; holders grant directly to their successor. With
    ``mirror=True`` (fault-tolerant variant) the home mirrors each state
    change to the lock's secondary home -- reproducing the messaging
    cost of the scheme the paper built and then abandoned for its
    complexity (recovery with this algorithm is not supported here:
    ``FaultPlan.apply`` refuses to arm a failure on such a cluster; use
    PollingLocks for runs with failures, as the paper does).
    """

    def __init__(self, agent, mirror: bool = False) -> None:
        super().__init__(agent)
        self.mirror = mirror
        #: Home-side state: lock -> {"tail": node|None, "ts": blob|None}.
        self.home_state: Dict[int, Dict[str, object]] = {}
        agent.register_service(QLOCK_SERVICE, self._serve)
        agent.register_notify(QLOCK_CHANNEL, self._on_notify)
        agent.register_notify(QLOCK_MIRROR_CHANNEL, self._on_mirror)

    def _home_entry(self, lock_id: int) -> Dict[str, object]:
        entry = self.home_state.get(lock_id)
        if entry is None:
            entry = {"tail": None, "ts": None}
            self.home_state[lock_id] = entry
        return entry

    # -- home-side service -----------------------------------------------------

    def _serve(self, body, src: int):
        op = body[0]
        agent = self.agent
        yield LOCK_OP_US
        if op == "req":
            _op, lock_id, requester = body
            entry = self._home_entry(lock_id)
            tail = entry["tail"]
            entry["tail"] = requester
            yield from self._mirror_update(lock_id, entry)
            if tail is None:
                return ("granted", entry["ts"]), 8 + self._ts_bytes(entry)
            # Forward to the previous tail; it will grant on release.
            yield from agent.notify(tail, QLOCK_CHANNEL,
                                    ("next", lock_id, requester))
            return ("queued", None), 8
        if op == "rel":
            _op, lock_id, holder, ts_blob = body
            entry = self._home_entry(lock_id)
            if entry["tail"] == holder:
                entry["tail"] = None
                entry["ts"] = ts_blob
                yield from self._mirror_update(lock_id, entry)
                return ("clear",), 8
            # Someone queued behind the holder; a "next" notification is
            # already on its way to it.
            return ("expect_next",), 8
        raise ProtocolError(f"unknown qlock op {op!r}")

    def _ts_bytes(self, entry) -> int:
        blob = entry["ts"]
        return len(blob) if blob else 0

    def _mirror_update(self, lock_id: int, entry) -> object:
        if self.mirror:
            secondary = self.agent.homes.lock_secondary(lock_id)
            if secondary != self.agent.node_id:
                yield from self.agent.notify(
                    secondary, QLOCK_MIRROR_CHANNEL,
                    (lock_id, entry["tail"], entry["ts"]))
        return None
        yield  # pragma: no cover (generator marker when mirror is False)

    def _on_mirror(self, msg) -> None:
        lock_id, tail, ts_blob = msg.payload[1]
        self.home_state[lock_id] = {"tail": tail, "ts": ts_blob}

    # -- requester-side notifications -------------------------------------------

    def _on_notify(self, msg) -> None:
        body = msg.payload[1]
        op = body[0]
        if op == "next":
            _op, lock_id, requester = body
            st = self._state(lock_id)
            st.next_requester = requester
            if st.next_event is not None and not st.next_event.settled:
                st.next_event.succeed(None)
        elif op == "grant":
            _op, lock_id, ts_blob = body
            st = self._state(lock_id)
            st.grant_ts = (VectorTimestamp.decode(
                self.agent.config.num_nodes, ts_blob)
                if ts_blob else None)
            if st.grant_event is not None and not st.grant_event.settled:
                st.grant_event.succeed("granted")
        else:
            raise ProtocolError(f"unknown qlock notify {op!r}")

    # -- global acquire/release ---------------------------------------------------

    def _global_acquire(self, lock_id: int, op: Optional[int] = None):
        agent = self.agent
        st = self._state(lock_id)
        home = agent.homes.lock_primary(lock_id)
        yield LOCK_OP_US
        st.grant_event = Event(self.engine, f"qlock{lock_id}.grant")
        reply = yield from agent.call_service(
            home, QLOCK_SERVICE, ("req", lock_id, agent.node_id), op=op)
        if reply[0] == "granted":
            st.grant_event = None
            blob = reply[1]
            return (VectorTimestamp.decode(agent.config.num_nodes, blob)
                    if blob else None)
        # Queued: wait for the direct grant from the previous holder.
        result = yield from agent.blocked_wait(st.grant_event)
        st.grant_event = None
        if result != "granted":
            raise ProtocolError("queue lock wait ended without grant")
        return st.grant_ts

    def _global_release(self, lock_id: int, ts: VectorTimestamp):
        agent = self.agent
        st = self._state(lock_id)
        home = agent.homes.lock_primary(lock_id)
        blob = ts.encode()
        reply = yield from agent.call_service(
            home, QLOCK_SERVICE, ("rel", lock_id, agent.node_id, blob))
        if reply[0] == "clear":
            st.next_requester = None
            return
        # expect_next: wait for (or use) the successor, grant directly.
        if st.next_requester is None:
            st.next_event = Event(self.engine, f"qlock{lock_id}.next")
            yield from agent.blocked_wait(st.next_event)
            st.next_event = None
        successor = st.next_requester
        st.next_requester = None
        yield from agent.notify(successor, QLOCK_CHANNEL,
                                ("grant", lock_id, blob),
                                body_bytes=16 + len(blob))


def make_lock_manager(agent, algorithm: str):
    """Factory mapping config to a lock manager instance; lock state
    is mirrored at a secondary home iff the agent asks for it."""
    if algorithm == "polling":
        return PollingLocks(agent, replicate=agent.mirror_locks)
    if algorithm == "queueing":
        return QueueingLocks(agent, mirror=agent.mirror_locks)
    raise ProtocolError(f"unknown lock algorithm {algorithm!r}")
