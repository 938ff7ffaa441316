"""Base SVM protocol agent: GeNIMA, home-based lazy release consistency.

One :class:`SvmNodeAgent` runs per node and implements paper section
3.2: intervals delimited by releases, a common per-SMP update list,
twins and diffs, eager diff propagation to home nodes at releases,
timestamp-driven invalidations at acquires, and whole-page fetches from
home on post-invalidation faults.

The agent works on real bytes: application reads/writes go through a
software page table into a working page store; diffs are computed from
real twins and applied at real home copies across the simulated wire.

Correctness under asynchrony is enforced with per-page *version
vectors*: every write notice records which writer interval invalidated
the page, and a fetch (or a home's own post-acquire access) is held
until the home copy has absorbed diffs up to the required versions --
the standard HLRC mechanism that makes eager asynchronous diff
propagation safe.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.cluster import Cluster, Hooks
from repro.config import (ACQUIRE_BASE_US, COMMIT_PER_PAGE_US,
                          INVALIDATE_PER_PAGE_US, PAGE_FAULT_HANDLER_US,
                          RELEASE_BASE_US, WRITE_NOTICE_PER_ENTRY_US,
                          diff_apply_us, diff_compute_us)
from repro.errors import ProtocolError
from repro.memory import (
    Access,
    Diff,
    PageStore,
    PageTable,
    apply_diff,
    compute_diff,
)
from repro.metrics import Category, NodeCounters
from repro.protocol.barrier import (ABORTED, BARRIER_SERVICE,
                                    DELAY_PER_NODE, STALE_DONE)
from repro.protocol.homes import HomeMap
from repro.protocol.signals import RecoverySignal
from repro.protocol.locks import (
    LOCKTS_REGION,
    LOCKVEC_REGION,
    make_lock_manager,
)
from repro.protocol.timestamps import VectorTimestamp
from repro.sim import Delay, Event, Mutex

#: Notify channel carrying encoded diffs to home nodes.
DIFF_CHANNEL = "svm_diff"
#: Service returning write-notice lists for an interval range.
GET_INTERVALS_SERVICE = "svm_get_intervals"
#: Service returning a page's current home copy (version-gated).
FETCH_PAGE_SERVICE = "svm_fetch_page"
#: Fetch-page reply telling the requester to retry: the home's version
#: wait was aborted (the counterpart of the barrier's ``ABORTED``).
RETRY_SENTINEL = "__retry__"

#: Wire size of one write notice (page id + interval tag).
WRITE_NOTICE_BYTES = 8

# Fixed-value charges, built once: a yielded Delay is only read, so one
# object serves every yield (the invalidation loop would otherwise
# build one per page).
_DELAY_FAULT_HANDLER = Delay(PAGE_FAULT_HANDLER_US)
_DELAY_INVALIDATE = Delay(INVALIDATE_PER_PAGE_US)
_DELAY_ACQUIRE = Delay(ACQUIRE_BASE_US)
_DELAY_RELEASE = Delay(RELEASE_BASE_US)


class Operation:
    """One protocol operation of ``op_class``, begun when built.

    :meth:`end` times it into the run's latency book
    (``runtime.latency``) if it began inside the timed region, as the
    run's counters count, and, when a causal tracer was attached at
    the start, finishes the operation id minted for it (``op``, None
    untraced; the ``label % args`` is built only for the tracer). As a
    context manager it binds ``op`` and ends however the block is left.
    """

    __slots__ = ("runtime", "op_class", "start", "tracer", "op")

    def __init__(self, runtime, op_class: str, node: int, label: str,
                 args: tuple) -> None:
        self.runtime = runtime
        self.op_class = op_class
        self.start = runtime.engine.now if runtime.timing_started else None
        self.tracer = tracer = runtime.cluster.optrace
        self.op = (None if tracer is None
                   else tracer.mint(op_class, node, label % args))

    def end(self) -> None:
        if self.op is not None:
            self.tracer.finish(self.op)
        if self.start is not None:
            self.runtime.latency.observe(
                self.op_class, self.runtime.engine.now - self.start)

    def __enter__(self) -> Optional[int]:
        return self.op

    def __exit__(self, *exc) -> None:
        self.end()


class SvmNodeAgent:
    """GeNIMA protocol state and operations for one node."""

    #: Protocol variant name (the FT subclass overrides).
    variant = "base"

    #: Whether lock state is mirrored at a secondary lock home.
    mirror_locks = False

    def __init__(self, cluster: Cluster, node_id: int, homes: HomeMap,
                 runtime) -> None:
        self.cluster = cluster
        self.node = cluster.node(node_id)
        self.node_id = node_id
        self.engine = cluster.engine
        self.config = cluster.config
        self.homes = homes
        self.runtime = runtime
        self.vmmc = self.node.vmmc
        self.rng = self.node.rng
        self.hooks = cluster.hooks
        self.address_space = cluster.address_space
        self.counters = NodeCounters()

        num_pages = self.config.shared_pages
        page_size = self.config.page_size
        self.page_size = page_size
        self.working = PageStore("working", num_pages, page_size)
        self.node.regions.export_region(self.working)
        self.page_table = PageTable(num_pages)

        # Lock regions (this node may be home for any lock).
        n = self.config.num_nodes
        self.node.regions.export(
            LOCKVEC_REGION, self.config.num_locks * n)
        self.node.regions.export(
            LOCKTS_REGION, self.config.num_locks * 4 * n)

        # LRC state -------------------------------------------------------
        self.ts = VectorTimestamp(n)
        #: Own interval counter (== self.ts[self.node_id]).
        self.interval_no = 0
        #: node -> interval -> list of updated pages (write notices).
        #: Normally only our own entries; recovery merges a dead node's.
        self.interval_log: Dict[int, Dict[int, List[int]]] = {node_id: {}}
        #: Pages updated in the currently open interval, in write order.
        self.update_list: "OrderedDict[int, None]" = OrderedDict()
        #: Interval number as of the last barrier we passed (what remote
        #: nodes are guaranteed to have seen of us via that barrier).
        self.last_barrier_interval = 0

        # Version gating ----------------------------------------------------
        #: Home side: page -> writer node -> highest interval applied.
        self.page_versions: Dict[int, Dict[int, int]] = {}
        #: Consumer side: page -> writer node -> interval required
        #: before the page may be used again.
        self.required_versions: Dict[int, Dict[int, int]] = {}
        self._version_events: Dict[int, Event] = {}

        #: Local diffs of dirty pages that had to be invalidated before
        #: their release (false sharing across an acquire).
        self._pending_local_diffs: Dict[int, Diff] = {}
        self._fault_mutexes: Dict[int, Mutex] = {}
        #: FT page locking (unused in base, checked in shared paths).
        self._page_unlock_events: Dict[int, Event] = {}

        # Intra-node barrier bookkeeping: (bar_id, epoch) -> state dict,
        # plus completed-generation counts per barrier id.
        self._local_barriers: Dict[object, Dict[str, object]] = {}
        self.barrier_done: Dict[int, int] = {}

        #: Optional ``fn(page, offset, data)`` observing every
        #: application store (repro.verify's shadow oracle). A plain
        #: attribute, not a hook: the write path is hot and a single
        #: None check is all the disabled case may cost.
        self.write_observer = None

        # Services / notify handlers ---------------------------------------
        self.register_service(GET_INTERVALS_SERVICE,
                              self._serve_get_intervals)
        self.register_service(FETCH_PAGE_SERVICE, self._serve_fetch_page)
        self.register_notify(DIFF_CHANNEL, self._on_diff)

        self.locks = make_lock_manager(
            self, self.config.protocol.lock_algorithm)

    # ------------------------------------------------------------------
    # Communication helpers with same-node fast paths
    # ------------------------------------------------------------------

    def deposit(self, dst: int, region: str, offset: int, data: bytes,
                wait: bool = False, op: Optional[int] = None):
        if dst == self.node_id:
            yield from self.node.mem_copy(len(data))
            self.node.regions.lookup(region).write(offset, data)
            return None
        return (yield from self.vmmc.remote_deposit(
            dst, region, offset, data, wait=wait, op=op))

    def fetch(self, dst: int, region: str, offset: int, size: int,
              op: Optional[int] = None):
        if dst == self.node_id:
            yield from self.node.mem_copy(size)
            return self.node.regions.lookup(region).read(offset, size)
        return (yield from self.vmmc.remote_fetch(
            dst, region, offset, size, op=op))

    def call_service(self, dst: int, name: str, body,
                     request_bytes: Optional[int] = None,
                     op: Optional[int] = None):
        if dst == self.node_id:
            handler = self.node.nic.services[name]
            payload, _size = yield from handler(body, self.node_id)
            return payload
        return (yield from self.vmmc.call(dst, name, body, request_bytes,
                                          op=op))

    def notify(self, dst: int, channel: str, body,
               body_bytes: Optional[int] = None, wait: bool = False,
               op: Optional[int] = None):
        if dst == self.node_id:
            handler = self.node.nic.notify_handlers[channel]
            result = handler(_LocalMessage(self.node_id, channel, body, op))
            if result is not None and hasattr(result, "send"):
                yield from result
            return None
        return (yield from self.vmmc.notify(
            dst, channel, body, body_bytes=body_bytes, wait=wait, op=op))

    def register_service(self, name: str, handler) -> None:
        self.node.nic.register_service(name, handler)

    def register_notify(self, channel: str, handler) -> None:
        self.node.nic.register_notify_handler(channel, handler)

    def _traced(self, op_class: str, label: str, *args) -> Operation:
        """``with self._traced(...) as op:`` runs a block as one
        operation: timed into the run's latency book, and causally
        traced (repro.obs.optrace) when a tracer is attached. ``op`` is
        its id, to be passed on to every message the block sends; with
        no tracer it is None and the ``label % args`` is never built."""
        return Operation(self.runtime, op_class, self.node_id, label, args)

    def check_recovery_abort(self) -> None:
        """FT hook: raise when a recovery is pending (base: never)."""

    def blocked_wait(self, event: Event):
        """Wait on a local handoff event. The FT subclass registers the
        wait with the recovery rendezvous (a thread blocked on another
        local thread counts as quiescent); the base protocol has no
        recovery, so this is a plain wait."""
        result = yield event
        return result

    def suspect(self, nodes):
        """A wait has gone on long enough that the ``nodes`` it depends
        on (an iterable, consumed lazily) may be dead. The FT subclass
        probes them; the base protocol has no failure detection."""
        yield from ()

    def _guarded(self, thread, factory):
        """Run one step of a synchronization operation, given as a
        generator factory. The FT subclass parks the thread at the
        recovery rendezvous and re-runs the step when a failure
        surfaces inside it; the base protocol has no failures to
        survive, so the step simply runs."""
        return (yield from factory())

    # ------------------------------------------------------------------
    # Application-facing memory access
    # ------------------------------------------------------------------

    def read(self, thread, addr: int, size: int):
        """Generator returning ``size`` bytes at shared address ``addr``.

        With :meth:`write`, the only way an application byte moves: one
        walk over the touched pages in address order, faulting exactly
        where mprotect would. Each page's chunk is copied as soon as
        the page is accessible, not after the whole span is: another
        local thread may invalidate page *k* while the walk faults on
        page *k*+1.
        """
        chunks = []
        end = addr + size
        while addr < end:
            page, offset = self.address_space.locate(addr)
            chunk = min(end - addr, self.page_size - offset)
            while self.page_table.lacks(page, False):
                yield from self._handle_fault(thread, page, False)
            chunks.append(self.working.read_span(page, offset, chunk))
            addr += chunk
        return b"".join(chunks)

    def write(self, thread, addr: int, data):
        """Generator writing ``data`` (any contiguous buffer) at shared
        address ``addr``."""
        view = memoryview(data).cast("B")
        while len(view) > 0:
            page, offset = self.address_space.locate(addr)
            piece = view[:self.page_size - offset]
            chunk = len(piece)
            while self.page_table.lacks(page, True):
                yield from self._handle_fault(thread, page, True)
            # No yield between the final check and the store: the write
            # is atomic with respect to concurrent releases downgrading
            # the page.
            self.working.write_span(page, offset, piece)
            if self.write_observer is not None:
                self.write_observer(page, offset, bytes(piece))
            addr += chunk
            view = view[chunk:]
        return None

    # ------------------------------------------------------------------
    # Page-fault handling
    # ------------------------------------------------------------------

    def _fault_mutex(self, page: int) -> Mutex:
        mtx = self._fault_mutexes.get(page)
        if mtx is None:
            mtx = Mutex(self.engine, f"fault{page}")
            self._fault_mutexes[page] = mtx
        return mtx

    def _handle_fault(self, thread, page: int, write: bool):
        thread.clock.push(Category.DATA_WAIT)
        mtx = self._fault_mutex(page)
        fault_observed = False
        try:
            yield from self.blocked_wait(mtx.acquire())
            try:
                # A recovery may have started while we queued behind
                # another faulting thread; park before touching state.
                self.check_recovery_abort()
                entry = self.page_table.entry(page)
                # Re-check: another local thread may have resolved it.
                if write and entry.access is Access.READ_WRITE:
                    return
                if not write and entry.access is not Access.INVALID:
                    return
                self.counters.page_faults += 1
                if write:
                    self.counters.write_faults += 1
                else:
                    self.counters.read_faults += 1
                self.hooks.fire(Hooks.PAGE_FAULT, self.node_id, page=page,
                                write=write, tid=thread.thread_id)
                fault_observed = True
                with self._traced("page_fault", "fault page %s (%s)", page,
                                  "write" if write else "read") as fault_op:
                    yield _DELAY_FAULT_HANDLER
                    # FT: faults on pages locked by an outstanding release
                    # stall until the release completes (paper Fig 4).
                    yield from self._wait_page_unlocked(page)
                    if entry.access is Access.INVALID:
                        yield from self._load_page(thread, page,
                                                   op=fault_op)
                    # A commit that locked the page during the fetch
                    # owns its twin until that release takes its diff:
                    # the write faults again and stalls above.
                    if write and not entry.locked:
                        yield from self._make_writable(thread, page)
            finally:
                mtx.release()
        finally:
            if fault_observed:
                # Balanced with PAGE_FAULT even when the service is cut
                # short (recovery abort, node death): the span end fires
                # from the finally so trace spans always close.
                self.hooks.fire(Hooks.PAGE_FAULT_DONE, self.node_id,
                                page=page, write=write,
                                tid=thread.thread_id)
            thread.clock.pop(Category.DATA_WAIT)

    def _wait_page_unlocked(self, page: int):
        while self.page_table.entry(page).locked:
            self.counters.page_lock_stalls += 1
            ev = self._page_unlock_events.get(page)
            if ev is None or ev.settled:
                ev = Event(self.engine, f"unlock{page}")
                self._page_unlock_events[page] = ev
            yield from self.blocked_wait(ev)

    def _unlock_pages(self, pages) -> None:
        for page in pages:
            entry = self.page_table.entry(page)
            entry.locked = False
            ev = self._page_unlock_events.pop(page, None)
            if ev is not None and not ev.settled:
                ev.succeed(None)

    def _load_page(self, thread, page: int, op: Optional[int] = None):
        """Bring an INVALID page up to date."""
        home = self.homes.primary_home(page)
        if home == self.node_id:
            yield from self._load_home_page(page)
            return
        required = dict(self.required_versions.get(page, {}))
        self.counters.remote_page_fetches += 1
        data = yield from self.call_service(
            home, FETCH_PAGE_SERVICE, (page, required), op=op)
        if data == RETRY_SENTINEL:
            raise RecoverySignal()
        yield from self.node.mem_copy(self.page_size)
        self._install_fetched(page, data)

    def _load_home_page(self, page: int):
        """Bring an INVALID page this node is primary home of up to
        date. Base: the working copy *is* the home copy; it only needs
        to wait for any required remote diffs to be applied."""
        yield from self._wait_local_versions(page)
        entry = self.page_table.entry(page)
        if entry.dirty:
            entry.access = Access.READ_WRITE
        else:
            entry.access = Access.READ_ONLY
        self.counters.local_page_fetches += 1

    def _install_fetched(self, page: int, data: bytes) -> None:
        entry = self.page_table.entry(page)
        pending = self._pending_local_diffs.pop(page, None)
        if pending is not None:
            # The page was dirty when invalidated: rebase our
            # un-released writes onto the fresh home copy, which
            # becomes the twin (the rebased runs are the only changed
            # bytes). No diff of the page has been taken since --
            # taking one pops the pending record -- so the next one
            # carries the runs.
            buf = bytearray(data)
            apply_diff(buf, pending)
            self.working.write_page(page, bytes(buf))
            entry.twin = bytes(data)
            entry.dirty = True
            # FT: unless a release has committed that interval and
            # locked the page. Its diff carries the runs; until it is
            # taken the page stays read-only, so the next write faults
            # and takes a fresh twin after the unlock.
            entry.access = (Access.READ_ONLY if entry.locked
                            else Access.READ_WRITE)
        else:
            self.working.write_page(page, data)
            entry.access = Access.READ_ONLY

    def _make_writable(self, thread, page: int):
        """READ_ONLY -> READ_WRITE: create a twin, join the update list."""
        entry = self.page_table.entry(page)
        if entry.access is Access.READ_WRITE:
            if entry.dirty:
                # Another path (pending-diff rebase) may have made the
                # page writable; dirtiness must imply list membership.
                self.update_list[page] = None
            return
        if self._twin_needed(page):
            if entry.twin is None:
                yield from self.node.mem_copy(self.page_size)
                entry.twin = self.working.read_page(page)
                self.counters.twins_created += 1
        entry.dirty = True
        self.update_list[page] = None
        entry.access = Access.READ_WRITE

    def _twin_needed(self, page: int) -> bool:
        """Base protocol: home nodes keep no twins for their own pages
        (their working copy is canonical and they never diff them)."""
        return self.homes.primary_home(page) != self.node_id

    # ------------------------------------------------------------------
    # Version gating
    # ------------------------------------------------------------------

    def _version_satisfied(self, page: int,
                           required: Dict[int, int]) -> bool:
        have = self.page_versions.get(page, {})
        return all(have.get(node, 0) >= interval
                   for node, interval in required.items())

    def _version_event(self, page: int) -> Event:
        ev = self._version_events.get(page)
        if ev is None or ev.settled:
            ev = Event(self.engine, f"ver{page}")
            self._version_events[page] = ev
        return ev

    def _bump_version(self, page: int, writer: int, interval: int) -> None:
        versions = self.page_versions.setdefault(page, {})
        if versions.get(writer, 0) < interval:
            versions[writer] = interval
        ev = self._version_events.pop(page, None)
        if ev is not None and not ev.settled:
            ev.succeed(None)

    def _wait_versions(self, page: int, required: Dict[int, int]):
        """Hold until this node's copy of ``page`` has absorbed the
        ``required`` writer intervals."""
        while not self._version_satisfied(page, required):
            yield self._version_event(page)

    def _wait_local_versions(self, page: int):
        required = self.required_versions.get(page, {})
        yield from self._wait_versions(page, dict(required))

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------

    def _serve_fetch_page(self, body, src: int):
        page, required = body
        yield from self._wait_versions(page, required)
        data = self._fetch_store(page).read_page(page)
        return data, self.page_size

    def _fetch_store(self, page: int) -> PageStore:
        """Which store acquirers' fetches are served from (base: the
        working copy; the FT subclass serves the committed copy)."""
        return self.working

    def _serve_get_intervals(self, body, src: int):
        target, first, last = body
        log = self.interval_log.get(target, {})
        entries = [(i, log[i]) for i in range(first, last + 1) if i in log]
        size = sum(WRITE_NOTICE_BYTES * (1 + len(pages))
                   for _i, pages in entries) or 8
        yield Delay(WRITE_NOTICE_PER_ENTRY_US * len(entries))
        return entries, size

    def _on_diff(self, msg):
        """Apply an incoming diff at this (home) node. Generator run at
        NIC level so diffs from one writer apply in FIFO order."""
        writer, interval, diff = msg.payload[1]
        yield Delay(diff_apply_us(max(diff.changed_bytes, 1)))
        apply_diff(self.working.page_view(diff.page_id), diff)
        self._bump_version(diff.page_id, writer, interval)

    # ------------------------------------------------------------------
    # Interval commitment and diff propagation
    # ------------------------------------------------------------------

    def _close_interval(self) -> List[int]:
        """End the open interval (pure state mutation, no yields);
        returns its pages, ``[]`` when nothing was written."""
        if not self.update_list:
            return []
        self.interval_no += 1
        self.ts[self.node_id] = self.interval_no
        pages = list(self.update_list)
        self.update_list.clear()
        self.interval_log[self.node_id][self.interval_no] = pages
        return pages

    def _commit_interval(self, thread):
        """End the current interval; returns the committed page list."""
        pages = self._close_interval()
        if not pages:
            return pages
        yield Delay(COMMIT_PER_PAGE_US * len(pages))
        for page in pages:
            if self.homes.primary_home(page) == self.node_id:
                # Our working copy is the home copy: the committed
                # interval is immediately fetchable.
                self._bump_version(page, self.node_id, self.interval_no)
        self.hooks.fire(Hooks.RELEASE_COMMITTED, self.node_id,
                        interval=self.interval_no, pages=pages)
        return pages

    def _propagate_updates(self, thread, pages: List[int], interval: int,
                           op: Optional[int] = None):
        """Send diffs of the committed pages to their homes (base: one
        home, no diffs for our own home pages)."""
        for page in pages:
            entry = self.page_table.entry(page)
            home = self.homes.primary_home(page)
            if home != self.node_id:
                yield from thread.clock.in_category(
                    Category.DIFF, self._diff_and_send(page, entry, home,
                                                       interval, op=op))
            self._finish_page_release(page)
            if entry.access is Access.READ_WRITE:
                entry.access = Access.READ_ONLY
        return None

    def _compute_page_diff(self, page: int, entry):
        if entry.twin is None:
            raise ProtocolError(
                f"node {self.node_id}: page {page} is diffed with no twin")
        yield Delay(diff_compute_us(self.page_size))
        diff = compute_diff(page, entry.twin, self.working.page_view(page))
        self.counters.pages_diffed += 1
        if self.homes.primary_home(page) == self.node_id:
            self.counters.home_pages_diffed += 1
        return diff

    def _diff_and_send(self, page: int, entry, home: int, interval: int,
                       op: Optional[int] = None):
        diff = yield from self._compute_page_diff(page, entry)
        if diff.is_empty:
            # Still announce the interval so version gating can advance.
            diff = Diff(page, ())
        self.counters.diff_messages += 1
        self.counters.diff_bytes_sent += diff.wire_bytes
        # In-simulation fast path: the message carries the (immutable)
        # Diff itself -- real run bytes, no encode/decode round trip --
        # while the wire cost model still charges the serialized size.
        yield from self.notify(home, DIFF_CHANNEL,
                               (self.node_id, interval, diff),
                               body_bytes=diff.wire_bytes, op=op)
        return diff

    def _finish_page_release(self, page: int) -> None:
        """The page's diff is taken: drop its twin and dirty state."""
        entry = self.page_table.entry(page)
        entry.dirty = False
        entry.twin = None
        # A pending rebase record saved by an invalidate-while-dirty is
        # satisfied by this commit (the diff just computed contains the
        # very runs it preserved). Keeping it would rebase stale bytes
        # over a *fresh* copy at the next fetch, silently reverting any
        # remote writes landed in between (a lost-update divergence).
        self._pending_local_diffs.pop(page, None)

    # ------------------------------------------------------------------
    # Acquire / release / barrier operations (called by the thread API)
    # ------------------------------------------------------------------

    def acquire_op(self, thread, lock_id: int):
        yield _DELAY_ACQUIRE
        self.hooks.fire(Hooks.ACQUIRE_START, self.node_id, lock=lock_id,
                        tid=thread.thread_id)
        with self._traced("lock_acquire", "lock %s acquire",
                          lock_id) as acq_op:
            grant_ts = yield from self._guarded(
                thread, lambda: self.locks.acquire(lock_id, op=acq_op))
            self.counters.acquires += 1
            yield from self._guarded(
                thread, lambda: thread.clock.in_category(
                    Category.PROTOCOL,
                    self._apply_incoming_ts(grant_ts, op=acq_op)))
        self.hooks.fire(Hooks.LOCK_ACQUIRED, self.node_id, lock=lock_id,
                        tid=thread.thread_id)
        return None

    def release_op(self, thread, lock_id: int):
        self.counters.releases += 1
        self.hooks.fire(Hooks.RELEASE_START, self.node_id, lock=lock_id,
                        tid=thread.thread_id)
        yield from self._release(thread, lock_id)
        self.hooks.fire(Hooks.RELEASE_DONE, self.node_id, lock=lock_id,
                        tid=thread.thread_id)
        return None

    def _release(self, thread, lock_id: Optional[int],
                 op: Optional[int] = None):
        """What a release does between RELEASE_START and RELEASE_DONE;
        a barrier leader runs it with no lock. Base: commit the
        interval, hand the lock over, then propagate diffs (version
        gating keeps fetches correct)."""
        yield _DELAY_RELEASE
        pages = yield from thread.clock.in_category(
            Category.PROTOCOL, self._commit_interval(thread))
        interval = self.interval_no
        if lock_id is not None:
            yield from self.locks.release(lock_id, self.ts.copy())
            self.hooks.fire(Hooks.LOCK_RELEASED, self.node_id,
                            lock=lock_id, tid=thread.thread_id)
        yield from self._propagate_updates(thread, pages, interval, op=op)
        return None

    def _apply_incoming_ts(self, grant_ts: Optional[VectorTimestamp],
                           op: Optional[int] = None):
        """Fetch and apply the write notices implied by a grant."""
        if grant_ts is None:
            return None
        missing = self.ts.missing_intervals(grant_ts)
        for node, first, last in missing:
            if node == self.node_id:
                continue
            entries = yield from self.call_service(
                node, GET_INTERVALS_SERVICE, (node, first, last), op=op)
            yield from self._apply_write_notices(node, entries)
        self.ts.merge(grant_ts)
        return None

    def _apply_write_notices(self, writer: int,
                             entries: List[Tuple[int, List[int]]]):
        for interval, pages in entries:
            if interval <= self.ts[writer]:
                continue  # already applied
            for page in pages:
                self.counters.write_notices += 1
                yield _DELAY_INVALIDATE
                self._invalidate_page(page, writer, interval)
        return None

    def _invalidate_page(self, page: int, writer: int,
                         interval: int) -> None:
        required = self.required_versions.get(page)
        if required is None:
            required = self.required_versions[page] = {}
        if required.get(writer, 0) < interval:
            required[writer] = interval
        entry = self.page_table.entry(page)
        self.counters.invalidations += 1
        if entry.dirty and self._twin_needed(page):
            # False sharing across an acquire: preserve our un-released
            # writes as a pending diff, rebased after the re-fetch.
            if entry.twin is not None:
                pending = compute_diff(
                    page, entry.twin, self.working.page_view(page))
                existing = self._pending_local_diffs.get(page)
                if existing is not None:
                    merged_runs = existing.runs + pending.runs
                    pending = Diff(page, merged_runs)
                self._pending_local_diffs[page] = pending
        entry.access = Access.INVALID

    def barrier_op(self, thread, barrier_id: int,
                   epoch: Optional[int] = None):
        """Global barrier, generation-aware.

        ``epoch`` is the caller's persistent count of completed passes
        through this barrier (tracked in checkpointable kernel state).
        A thread replaying after a migration may re-arrive at a barrier
        whose generation already completed -- with its node's
        participation -- and must pass straight through; this is what
        makes barrier re-execution idempotent (required by the recovery
        replay semantics, see apps/base.py).
        """
        done = self.barrier_done.get(barrier_id, 0)
        if epoch is None:
            epoch = done
        if epoch < done:
            # Stale re-arrival: this generation completed earlier.
            yield DELAY_PER_NODE
            return None
        self.hooks.fire(Hooks.BARRIER_ENTER, self.node_id,
                        barrier=barrier_id, thread=thread.thread_id)
        state = self._local_barrier_state(barrier_id, epoch)
        if not state["released"]:
            state["arrived"] += 1
            # Exactly one leader per generation runs the internode
            # protocol, even if the local thread count changes under a
            # migration while the generation is open.
            is_leader = (state["arrived"] >= self._local_thread_count()
                         and not state["leader"])
            if not is_leader:
                ev = state.get("straggler_event")
                if ev is not None and not ev.settled:
                    ev.succeed(None)
                yield from self.blocked_wait(state["event"])
            else:
                state["leader"] = True
                self.counters.barriers += 1
                with self._traced("barrier", "barrier %s",
                                  barrier_id) as bar_op:
                    yield from self._internode_barrier(thread, barrier_id,
                                                       state, op=bar_op)
                # max(): recovery reconciliation may have advanced the
                # generation count past this epoch while we were parked.
                self.barrier_done[barrier_id] = max(
                    self.barrier_done.get(barrier_id, 0), epoch + 1)
                state["released"] = True
                self._local_barriers.pop((barrier_id, epoch - 1), None)
                if not state["event"].settled:
                    state["event"].succeed(None)
        self.hooks.fire(Hooks.BARRIER_EXIT, self.node_id,
                        barrier=barrier_id, thread=thread.thread_id)
        return None

    def _local_barrier_state(self, barrier_id: int,
                             epoch: int) -> Dict[str, object]:
        state = self._local_barriers.get((barrier_id, epoch))
        if state is None:
            state = {"bid": barrier_id, "epoch": epoch,
                     "arrived": 0, "released": False, "leader": False,
                     "event": Event(self.engine, f"bar{barrier_id}.{epoch}")}
            self._local_barriers[(barrier_id, epoch)] = state
        return state

    def _local_thread_count(self) -> int:
        return self.runtime.threads_on_node(self.node_id)

    def _gather_local_stragglers(self, state):
        """Wait until every *current* local thread has arrived.

        A no-op in normal operation (the leader is by definition the
        last arrival); needed when a migrated thread joins this node
        while a barrier generation is open -- the leader must see its
        arrival (and commit its updates) before exchanging.
        """
        while state["arrived"] < self._local_thread_count():
            if self.barrier_done.get(state["bid"], 0) > state["epoch"]:
                # Recovery reconciliation advanced the generation count
                # past this epoch: the generation completed globally
                # (with this node's participation) and the remaining
                # local threads are at later epochs. Tell the caller
                # the generation is stale so it skips the exchange.
                state["straggler_event"] = None
                return True
            ev = Event(self.engine, "straggler")
            state["straggler_event"] = ev
            if state["arrived"] >= self._local_thread_count():
                break
            yield from self.blocked_wait(ev)
        state["straggler_event"] = None
        return False

    def _internode_barrier(self, thread, barrier_id: int, state,
                           op: Optional[int] = None):
        yield from self._gather_local_stragglers(state)
        yield from self._release(thread, None, op=op)
        yield from self._barrier_exchange(thread, barrier_id, op)
        return None

    def _barrier_exchange(self, thread, barrier_id: int,
                          op: Optional[int] = None):
        """Arrive at the barrier manager with our timestamp and every
        interval other nodes may not have seen yet; apply the merged
        reply."""
        own_log = self.interval_log[self.node_id]
        entries = [(i, own_log[i]) for i in sorted(own_log)
                   if i > self.last_barrier_interval]
        body_bytes = (self.ts.wire_bytes + 8 + sum(
            WRITE_NOTICE_BYTES * (1 + len(p)) for _i, p in entries))
        manager = self.runtime.barrier_manager_node()
        gen_no = self.barrier_done.get(barrier_id, 0)
        reply = yield from self.call_service(
            manager, BARRIER_SERVICE,
            (barrier_id, self.node_id, gen_no, self.ts.encode(), entries),
            request_bytes=body_bytes, op=op)
        if reply[0] == ABORTED:
            raise RecoverySignal()
        self.last_barrier_interval = self.interval_no
        if reply[0] == STALE_DONE:
            # Our generation completed before the old manager died; the
            # recovery exchange already delivered its effects.
            return None
        merged_blob, all_entries = reply
        merged = VectorTimestamp.decode(self.config.num_nodes, merged_blob)
        yield from thread.clock.in_category(
            Category.PROTOCOL,
            self._apply_barrier_notices(all_entries))
        self.ts.merge(merged)
        self._trim_interval_log()
        return None

    def _trim_interval_log(self) -> None:
        """Garbage-collect write-notice history after a barrier.

        Every interval up to ``last_barrier_interval`` was distributed
        to all nodes by the barrier reply, so no future acquirer can
        request it; discarding the entries bounds protocol metadata
        (the log-trimming problem the paper's related-work section
        holds against log-based schemes is solved here by the barrier's
        global distribution).
        """
        own = self.interval_log[self.node_id]
        stale = [i for i in own if i <= self.last_barrier_interval]
        for interval in stale:
            del own[interval]
        self.counters.intervals_trimmed += len(stale)

    def _apply_barrier_notices(self, all_entries):
        for node, interval, pages in all_entries:
            if node == self.node_id:
                continue
            yield from self._apply_write_notices(node, [(interval, pages)])
        return None


class _LocalMessage:
    """Shim so local notify delivery matches the NIC message shape."""

    __slots__ = ("src", "payload", "op")

    def __init__(self, src: int, channel: str, body, op=None) -> None:
        self.src = src
        self.payload = (channel, body)
        self.op = op
