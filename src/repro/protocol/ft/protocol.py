"""The extended, fault-tolerant SVM protocol (paper section 4).

Extends the base GeNIMA agent with:

* **dual page homes** -- every page has a primary home keeping a
  *committed* copy and a secondary home keeping a *tentative* copy;
  fetches are served from committed copies only;
* **two-phase diff propagation** -- phase 1 applies diffs to tentative
  copies at secondary homes; the releaser then saves its timestamp (and
  the release's diffs) at its backup node (point B) and only then
  updates the committed copies (phase 2). Committed copies are updated
  last, so home updates serialize and a release is atomic w.r.t.
  single failures (Fig 2);
* **twins and diffs for home pages too** -- both copies must be kept
  current, so home nodes now diff their own pages (a dominant overhead
  for FFT/LU per section 5.3);
* **page locking** -- pages committed by an outstanding release stall
  new faults until propagation completes, preventing the eager-diff
  atomicity violation of Fig 4;
* **serialized releases** per SMP node (checkpoints must not overlap,
  section 4.4);
* **remote thread checkpointing** at points A and B, double-buffered;
* **recovery participation** -- every synchronization operation is
  wrapped in a retry loop that parks the thread at the recovery
  rendezvous when a failure is detected and retries (against the
  reconfigured home map) afterwards.

An addition relative to the paper's text: tentative copies keep a
small per-release *undo log* and the point-A shipment carries the
release's diffs, so roll-back and roll-forward remain executable even
when the failed node was itself one of an updated page's two homes
(see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster import Hooks
from repro.config import (CHECKPOINT_BASE_US, CHECKPOINT_STACK_BYTES,
                          COMMIT_PER_PAGE_US, HEARTBEAT_TIMEOUT_US,
                          PAGE_LOCK_US, RELEASE_BASE_US, THREAD_SUSPEND_US,
                          checkpoint_us, diff_apply_us)
from repro.errors import ProtocolError, RemoteNodeFailure
from repro.memory import Access, Diff, PageStore, apply_diff
from repro.metrics import Category
from repro.protocol.agent import DIFF_CHANNEL, RETRY_SENTINEL, SvmNodeAgent
from repro.protocol.ft.checkpoint import (
    CheckpointStore,
    encode_thread_state,
)
from repro.protocol.signals import RecoverySignal
from repro.sim import Event, timeout_wait

#: Notify channel carrying checkpoint traffic to backup nodes.
CKPT_CHANNEL = "ft_ckpt"

# Release pipeline stages (resumable across recoveries).
STAGE_PREP = 0
STAGE_PHASE1 = 1
STAGE_POINT_B = 2
STAGE_LOCK_RELEASE = 3
STAGE_PHASE2 = 4


@dataclass
class _InflightRelease:
    seq: int
    interval: int
    pages: List[int]
    diffs: Dict[int, Diff]
    stage: int = STAGE_PHASE1
    lock_id: Optional[int] = None
    #: tid -> thread state frozen at the interval commit. Checkpoints
    #: shipped at points A/B must describe execution up to (at most)
    #: the committed interval; threads keep running between the commit
    #: and the ship, so the blobs are captured atomically with the
    #: commit and the later ships send these frozen copies.
    state_blobs: Dict[int, bytes] = field(default_factory=dict)


@dataclass
class _UndoRecord:
    seq: int
    #: page -> list of (offset, old bytes) captured before diff apply.
    pages: Dict[int, List[Tuple[int, bytes]]] = field(default_factory=dict)


class FtSvmNodeAgent(SvmNodeAgent):
    """GeNIMA extended with dynamic data replication."""

    variant = "ft"
    mirror_locks = True

    def __init__(self, cluster, node_id, homes, runtime) -> None:
        super().__init__(cluster, node_id, homes, runtime)
        num_pages = self.config.shared_pages
        self.committed = PageStore("committed", num_pages, self.page_size)
        self.tentative = PageStore("tentative", num_pages, self.page_size)
        self.node.regions.export_region(self.committed)
        self.node.regions.export_region(self.tentative)

        self.ckpt_store = CheckpointStore(node_id)
        #: Self-mirror of everything this node has *confirmedly* shipped
        #: to its backup. Costs nothing extra (the node already owns the
        #: data); it exists so that when the backup dies, recovery can
        #: copy the full checkpoint history -- thread-state slots,
        #: pending/complete release records, mirrored write notices --
        #: to the new backup instead of only the live release metadata.
        #: Without it, a node whose backup died loses its durable
        #: history: its next failure then rolls back releases that had
        #: long passed point B (observed as doubled RMWs, or as a hang
        #: when a lock timestamp still names the rolled-back interval).
        self.ckpt_mirror = CheckpointStore(node_id)
        self.register_notify(CKPT_CHANNEL, self._on_checkpoint)

        self.register_notify("svm_diff_flush", lambda msg: None)
        self.release_seq = 0
        #: thread id -> resumable release pipeline state.
        self._inflight: Dict[int, _InflightRelease] = {}
        self._release_busy: Optional[Event] = None
        #: Interval number as of our last *point-B-published* release;
        #: what other nodes may legitimately know about us.
        self.published_interval = 0
        #: Secondary-home undo log: writer -> newest release's old bytes.
        self._undo: Dict[int, _UndoRecord] = {}
        self.recovery_pending: Optional[RecoverySignal] = None
        #: Set by recovery when this node's checkpoint backup died: the
        #: first thread leaving the rendezvous performs a null release
        #: to re-establish checkpoint redundancy at the new backup.
        self.needs_checkpoint_reseed = False

    # ------------------------------------------------------------------
    # Recovery plumbing
    # ------------------------------------------------------------------

    def check_recovery_abort(self) -> None:
        if self.recovery_pending is not None:
            raise RecoverySignal(self.recovery_pending.failed_node)

    def blocked_wait(self, event: Event):
        """Wait on a local handoff event, registered as quiescent for
        the recovery rendezvous (the thread cannot act until another
        local thread resumes)."""
        manager = self.runtime.recovery_manager
        manager.note_blocked(self.node_id)
        try:
            result = yield event
        finally:
            manager.note_unblocked(self.node_id)
        return result

    def suspect(self, nodes):
        """Section 4.1's reactive detection: probe each node a stalled
        wait depends on and report the dead ones."""
        for node in nodes:
            if not (yield from self.vmmc.probe(node)):
                self.runtime.recovery_manager.report_failure(node)

    def abort_local_waits(self) -> None:
        """Called at recovery start: wake version waiters with a
        recovery signal so they can park (their awaited diffs may have
        died with the failed node)."""
        events, self._version_events = self._version_events, {}
        for ev in events.values():
            if not ev.settled:
                ev.fail(RecoverySignal())

    def _guarded(self, thread, factory):
        """Run ``factory()`` (a generator factory), parking at the
        recovery rendezvous and retrying on failure signals: every
        synchronization operation, and every memory access, survives a
        recovery by re-running against the reconfigured home map."""
        while True:
            if self.recovery_pending is not None:
                yield from self.join_recovery(thread, self.recovery_pending)
                continue
            try:
                result = yield from factory()
                return result
            except RemoteNodeFailure as exc:
                yield from self.join_recovery(
                    thread, RecoverySignal(exc.node_id))
            except RecoverySignal as exc:
                yield from self.join_recovery(thread, exc)

    def join_recovery(self, thread, signal: RecoverySignal):
        """Report + park + (possibly) reseed. Never lets recovery-class
        exceptions escape: a *new* failure surfacing during the reseed
        null release loops back into another report/park round, so the
        caller's retry handler stays simple."""
        manager = self.runtime.recovery_manager
        null_started = False
        while True:
            if signal is not None and signal.failed_node is not None:
                manager.report_failure(signal.failed_node)
            yield from manager.park(thread)
            if not null_started:
                if not self.needs_checkpoint_reseed \
                        or thread.thread_id in self._inflight:
                    # A thread with a paused pipeline of its own must
                    # not run the reseed -- its retry will resume that
                    # pipeline; any fresh release re-ships checkpoints
                    # anyway (see _commit_for_release).
                    return
                # Our checkpoint backup died with our threads' saved
                # states: run a null release (commit + two-phase
                # propagation + points A/B) so the new backup holds
                # current checkpoints before application work resumes.
                self.needs_checkpoint_reseed = False
                null_started = True
            # Run (or, after a nested failure, finish) the null
            # release. Once started it MUST complete inside this call:
            # returning with it half-done would leak the release slot
            # and leave its inflight record to be mistaken for the
            # caller's next real release.
            try:
                yield from self._release_pipeline(thread, None)
                return
            except RemoteNodeFailure as exc:
                signal = RecoverySignal(exc.node_id)
            except RecoverySignal as exc:
                signal = exc

    # ------------------------------------------------------------------
    # Memory access wrappers (retry across recoveries)
    # ------------------------------------------------------------------

    def read(self, thread, addr: int, size: int):
        return (yield from self._guarded(
            thread, lambda: super(FtSvmNodeAgent, self).read(
                thread, addr, size)))

    def write(self, thread, addr: int, data):
        return (yield from self._guarded(
            thread, lambda: super(FtSvmNodeAgent, self).write(
                thread, addr, data)))

    # ------------------------------------------------------------------
    # Page management: dual homes, committed/tentative copies
    # ------------------------------------------------------------------

    def _twin_needed(self, page: int) -> bool:
        # Twins are created even for home pages (section 4.2): every
        # updated page is diffed to both of its homes.
        return True

    def _fetch_store(self, page: int) -> PageStore:
        # Fetches are served from the committed copy: the version
        # containing exactly the permanent, failure-immune updates.
        return self.committed

    def _load_home_page(self, page: int):
        # Local fetch: copy our committed copy into the working copy
        # (the extended protocol's extra local fetch, section 5.2).
        yield from self._wait_local_versions(page)
        yield from self.node.mem_copy(self.page_size)
        self.counters.local_page_fetches += 1
        self._install_fetched(page, self.committed.read_page(page))

    def _wait_versions(self, page: int, required: Dict[int, int]):
        while not self._version_satisfied(page, required):
            # Version waits are aborted (events failed) when a recovery
            # begins, since the awaited diff may have died with the
            # failed node; check before re-arming.
            self.check_recovery_abort()
            # A writer that dies mid-propagation would leave this wait
            # hanging; on timeout suspect the unsatisfied writers --
            # lazily, so a writer whose diff lands during an earlier
            # probe is not probed.
            ok, _value = yield from timeout_wait(
                self.engine, self._version_event(page), HEARTBEAT_TIMEOUT_US)
            if ok:
                continue
            have = self.page_versions.get(page, {})
            yield from self.suspect(
                writer for writer, interval in required.items()
                if have.get(writer, 0) < interval
                and writer != self.node_id)

    def _serve_fetch_page(self, body, src: int):
        try:
            return (yield from super()._serve_fetch_page(body, src))
        except RecoverySignal:
            # Our version wait was aborted by a recovery: the requester
            # retries against the reconfigured home map.
            return RETRY_SENTINEL, 16

    # Incoming diffs: phase selects the target copy --------------------------

    def _on_diff(self, msg):
        phase, writer, interval, seq, group = msg.payload[1]
        for diff in group:
            yield from self._apply_one_diff(phase, writer, interval, seq,
                                            diff)

    def _apply_one_diff(self, phase, writer, interval, seq, diff):
        yield diff_apply_us(max(diff.changed_bytes, 1))
        if phase == "tent":
            self._record_undo(writer, seq, diff)
            apply_diff(self.tentative.page_view(diff.page_id), diff)
        elif phase == "comm":
            apply_diff(self.committed.page_view(diff.page_id), diff)
            self._bump_version(diff.page_id, writer, interval)
        else:
            raise ProtocolError(f"unknown diff phase {phase!r}")
        self.hooks.fire(Hooks.DIFF_APPLY, self.node_id, phase=phase,
                        writer=writer, interval=interval, seq=seq,
                        page=diff.page_id)

    def _record_undo(self, writer: int, seq: int, diff: Diff) -> None:
        record = self._undo.get(writer)
        if record is None or record.seq < seq:
            record = _UndoRecord(seq)
            self._undo[writer] = record
        elif record.seq > seq:
            return  # stale retransmission of an older release
        if diff.page_id in record.pages:
            return  # recovery-retry resend: keep the first (true) undo
        old_runs = [(offset, self.tentative.read_span(
            diff.page_id, offset, len(data)))
            for offset, data in diff.runs]
        record.pages[diff.page_id] = old_runs

    def apply_undo(self, writer: int, seq: int) -> List[int]:
        """Recovery: cancel a failed writer's partially-propagated
        release by restoring old bytes at our tentative copies.
        Returns the pages touched (for cost accounting)."""
        record = self._undo.get(writer)
        if record is None or record.seq != seq:
            return []
        for page, runs in record.pages.items():
            buf = self.tentative.page_view(page)
            for offset, old in runs:
                buf[offset:offset + len(old)] = old
        touched = sorted(record.pages)
        del self._undo[writer]
        return touched

    # ------------------------------------------------------------------
    # Release pipeline: commit -> ckpt A -> phase 1 -> point B ->
    # lock handover -> phase 2 -> unlock
    # ------------------------------------------------------------------

    def _release(self, thread, lock_id: int, op: Optional[int] = None):
        yield from self._guarded(
            thread, lambda: self._release_pipeline(thread, lock_id))

    def _acquire_release_slot(self, thread):
        """Serialize releases within the node (section 4.4: checkpoints
        by different threads must not overlap)."""
        if not self.config.protocol.serialize_releases:
            return
        while self._release_busy is not None:
            self.counters.release_serialization_stalls += 1
            yield from self.blocked_wait(self._release_busy)
        self._release_busy = Event(self.engine, f"relslot{self.node_id}")

    def _free_release_slot(self) -> None:
        if self._release_busy is not None:
            busy, self._release_busy = self._release_busy, None
            if not busy.settled:
                busy.succeed(None)

    def _release_pipeline(self, thread, lock_id: Optional[int]):
        tid = thread.thread_id
        if tid not in self._inflight:
            yield from self._acquire_release_slot(thread)
            # No yields between slot grant and commit: the commit is
            # atomic with respect to interruption.
            self._commit_for_release(thread, lock_id)
        fl = self._inflight[tid]
        if fl.stage == STAGE_PREP:
            yield from self._prepare_release(thread, fl)
            fl.stage = STAGE_PHASE1
        if fl.stage == STAGE_PHASE1:
            self.hooks.fire(Hooks.DIFF_PHASE1_START, self.node_id,
                            seq=fl.seq, tid=thread.thread_id)
            yield from thread.clock.in_category(
                Category.DIFF, self._traced_send_diffs(fl, "tent",
                                                       "diff_phase1"))
            self.hooks.fire(Hooks.DIFF_PHASE1_DONE, self.node_id,
                            seq=fl.seq, tid=thread.thread_id)
            fl.stage = STAGE_POINT_B
        if fl.stage == STAGE_POINT_B:
            yield from thread.clock.in_category(
                Category.CHECKPOINT, self._point_b(thread, fl))
            fl.stage = STAGE_LOCK_RELEASE
        if fl.stage == STAGE_LOCK_RELEASE:
            if fl.lock_id is not None:
                yield from self.locks.release(fl.lock_id, self.ts.copy())
                self.hooks.fire(Hooks.LOCK_RELEASED, self.node_id,
                                lock=fl.lock_id, tid=thread.thread_id)
            fl.stage = STAGE_PHASE2
            self.hooks.fire(Hooks.DIFF_PHASE2_START, self.node_id,
                            seq=fl.seq, tid=thread.thread_id)
        if fl.stage == STAGE_PHASE2:
            yield from thread.clock.in_category(
                Category.DIFF, self._traced_send_diffs(fl, "comm",
                                                       "diff_phase2"))
            self._unlock_pages(fl.pages)
            del self._inflight[tid]
            self._free_release_slot()
            self.hooks.fire(Hooks.DIFF_PHASE2_DONE, self.node_id,
                            seq=fl.seq, tid=thread.thread_id)
        return None

    def _commit_for_release(self, thread, lock_id: Optional[int]) -> None:
        """End the interval: pure state mutations, no yields, so an
        interruption can never split the commit."""
        self.release_seq += 1
        seq = self.release_seq
        pages = self._close_interval()
        for page in pages:
            entry = self.page_table.entry(page)
            # Page locking (Fig 4): stall faults until propagation
            # completes; downgrade so new writes fault.
            entry.locked = True
            if entry.access is Access.READ_WRITE:
                entry.access = Access.READ_ONLY
        # Any fresh release re-establishes checkpoint coverage (points
        # A and B ship every local thread's state to the new backup).
        self.needs_checkpoint_reseed = False
        # Freeze every local thread's state NOW, atomically with the
        # interval commit. A peer that keeps executing between this
        # commit and the point-A ship writes into the *next* interval;
        # checkpointing its later state under this release's seq would
        # resume it past actions whose data dies with this node
        # (the 145/1/533 divergence).
        state_blobs = {
            rec.tid: encode_thread_state(rec.ctx.state)
            for rec in self.runtime.threads
            if rec.current_node == self.node_id and not rec.finished}
        self._inflight[thread.thread_id] = _InflightRelease(
            seq=seq, interval=self.interval_no, pages=pages, diffs={},
            stage=STAGE_PREP, lock_id=lock_id, state_blobs=state_blobs)
        self.hooks.fire(Hooks.RELEASE_COMMITTED, self.node_id,
                        interval=self.interval_no, pages=pages, seq=seq)

    def _prepare_release(self, thread, fl: _InflightRelease):
        """Checkpoint peers (point A), compute diffs, ship the pending
        record to the backup. Every step is idempotent so a recovery
        retry can safely re-run the stage."""
        yield (RELEASE_BASE_US
               + COMMIT_PER_PAGE_US * len(fl.pages)
               + PAGE_LOCK_US * len(fl.pages))
        # Point A: suspend peers, ship their states to the backup.
        yield from thread.clock.in_category(
            Category.CHECKPOINT, self._point_a(thread, fl))
        # Compute all diffs once; they serve both phases (and the
        # pending record shipped to the backup).
        for page in fl.pages:
            if page in fl.diffs:
                continue  # recomputed stage: twin already consumed
            entry = self.page_table.entry(page)
            diff = yield from thread.clock.in_category(
                Category.DIFF, self._compute_page_diff(page, entry))
            fl.diffs[page] = diff
            self._finish_page_release(page)
        # Encoded once: the backup and the mirror each store their own
        # dict of the same immutable blobs.
        blobs = {page: diff.encode() for page, diff in fl.diffs.items()}
        record_body = ("pending", self.node_id, fl.seq, fl.interval,
                       fl.pages, blobs, self.last_barrier_interval)
        body_bytes = 32 + sum(d.wire_bytes for d in fl.diffs.values())
        backup = self.homes.backup_node(self.node_id)
        yield from self.notify(backup, CKPT_CHANNEL, record_body,
                               body_bytes=body_bytes, wait=True)
        # Mirror the shipped record locally (delivery was waited, so the
        # mirror never claims more than the backup durably holds).
        self.ckpt_mirror.store(record_body)
        return None

    def _traced_send_diffs(self, fl: _InflightRelease, phase: str,
                           op_class: str):
        """Run one propagation phase under its own traced operation."""
        with self._traced(op_class, "%s (seq %s)", op_class,
                          fl.seq) as phase_op:
            yield from self._send_diffs(fl, phase, op=phase_op)
        return None

    def _send_diffs(self, fl: _InflightRelease, phase: str,
                    op: Optional[int] = None):
        """One propagation phase: send every diff to the phase's home
        set, then flush each destination (FIFO + waited marker) so the
        stage is stable before the pipeline advances.

        With ``batch_diffs`` (section 6's "fewer and larger messages"
        optimization) all of a destination's diffs travel as one
        message, trading per-message NIC occupancy for burst size.
        """
        by_target: Dict[int, List[Diff]] = {}
        for page in fl.pages:
            diff = fl.diffs[page]
            if phase == "tent":
                target = self.homes.secondary_home(page)
            else:
                target = self.homes.primary_home(page)
            by_target.setdefault(target, []).append(diff)
        # Diff messages carry the immutable Diff objects themselves --
        # real run bytes without an encode/decode round trip -- while
        # body_bytes still charges the full serialized size (the
        # checkpoint records shipped at point A keep exercising the
        # real encoder).
        batch = self.config.protocol.batch_diffs
        for target in sorted(by_target):
            diffs = by_target[target]
            for group in ([diffs] if batch else [[d] for d in diffs]):
                size = sum(d.wire_bytes for d in group)
                self.counters.diff_messages += 1
                self.counters.diff_bytes_sent += size
                for diff in group:
                    self.hooks.fire(Hooks.DIFF_SEND, self.node_id,
                                    phase=phase, seq=fl.seq,
                                    interval=fl.interval,
                                    page=diff.page_id, target=target)
                yield from self.notify(
                    target, DIFF_CHANNEL,
                    (phase, self.node_id, fl.interval, fl.seq, group),
                    body_bytes=size, op=op)
        for target in sorted(by_target):
            if target != self.node_id:
                yield from self.notify(target, "svm_diff_flush", None,
                                       body_bytes=0, wait=True, op=op)
        return None

    def _point_a(self, thread, fl: _InflightRelease):
        """Checkpoint every local thread except the releaser.

        Ships the state blobs frozen at the interval commit, NOT the
        threads' current states: a peer that ran on between the commit
        and this ship has advanced into the next (open) interval, and
        its newer state must only ever be checkpointed under a seq
        whose interval contains the matching data."""
        if not self.config.protocol.checkpointing:
            return None
        self.hooks.fire(Hooks.CHECKPOINT_A_START, self.node_id,
                        seq=fl.seq, tid=thread.thread_id)
        with self._traced("checkpoint_a", "checkpoint A (seq %s)",
                          fl.seq) as ck_op:
            peer_tids = sorted(tid for tid in fl.state_blobs
                               if tid != thread.thread_id)
            yield THREAD_SUSPEND_US * len(peer_tids)
            for tid in peer_tids:
                yield from self._ship_thread_state(
                    tid, fl.seq, fl.state_blobs[tid], op=ck_op)
        self.hooks.fire(Hooks.CHECKPOINT_A, self.node_id, seq=fl.seq,
                        tid=thread.thread_id)
        return None

    def _point_b(self, thread, fl: _InflightRelease):
        """Save our timestamp and the releaser's own state remotely;
        after this the release is conceptually complete."""
        backup = self.homes.backup_node(self.node_id)
        self.hooks.fire(Hooks.CHECKPOINT_B_START, self.node_id,
                        seq=fl.seq, tid=thread.thread_id)
        with self._traced("checkpoint_b", "checkpoint B (seq %s)",
                          fl.seq) as ck_op:
            if self.config.protocol.checkpointing:
                # The releaser runs only protocol code during its own
                # pipeline, so its commit-frozen state is its current one.
                blob = fl.state_blobs.get(thread.thread_id)
                if blob is None:
                    rec = self.runtime.threads[thread.thread_id]
                    blob = encode_thread_state(rec.ctx.state)
                yield from self._ship_thread_state(thread.thread_id,
                                                   fl.seq, blob, op=ck_op)
            record_body = ("complete", self.node_id, fl.seq,
                           self.ts.encode())
            yield from self.notify(
                backup, CKPT_CHANNEL, record_body,
                body_bytes=16 + self.ts.wire_bytes, wait=True, op=ck_op)
        # Mirrored only after the waited delivery: "complete" in the
        # mirror must coincide with the pipeline being past point B,
        # which is what exempts the release from the recovery rewind
        # (step 3a) that would otherwise undo its tentative updates.
        self.ckpt_mirror.store(record_body)
        self.published_interval = self.interval_no
        self.hooks.fire(Hooks.CHECKPOINT_B, self.node_id, seq=fl.seq,
                        tid=thread.thread_id)
        return None

    def _ship_thread_state(self, tid: int, seq: int, blob: bytes,
                           op: Optional[int] = None):
        # Accounted size includes the modelled native stack (the paper
        # ships context + stack; our explicit state is more compact).
        size = len(blob) + CHECKPOINT_STACK_BYTES
        self.counters.checkpoints += 1
        self.counters.checkpoint_bytes += size
        yield checkpoint_us(size)
        backup = self.homes.backup_node(self.node_id)
        record_body = ("state", self.node_id, tid, seq, blob)
        yield from self.notify(backup, CKPT_CHANNEL, record_body,
                               body_bytes=size + 32, op=op)
        # The blob is this node's own frozen truth; mirroring it eagerly
        # is safe (the mirror is only read while this node is alive).
        self.ckpt_mirror.store(record_body)
        return None

    def initial_checkpoint(self, rec):
        """Ship a seq-0 checkpoint right after initialization so a
        thread that fails before its first release can still be
        recovered (into the start of the timed region)."""
        if not self.config.protocol.checkpointing:
            return None
        yield from self._ship_thread_state(
            rec.tid, 0, encode_thread_state(rec.ctx.state))
        return None

    def _on_checkpoint(self, msg):
        body = msg.payload[1]
        ward = body[1]
        manager = self.runtime.recovery_manager
        if manager is not None and (ward in manager.victims
                                    or ward in self.homes.failed):
            # A checkpoint record from a node whose failure has been
            # detected: it was in flight at the death. Accepting it now
            # would flip recovery decisions already being made from the
            # frozen records (the paper's "no guarantee of success for
            # previous operations" case) -- drop it.
            return
        yield CHECKPOINT_BASE_US * 0.2
        self.hooks.fire(Hooks.CHECKPOINT_STORED, self.node_id,
                        **self.ckpt_store.store(body))

    # ------------------------------------------------------------------
    # Barrier leader sequence with recovery retries
    # ------------------------------------------------------------------

    def _internode_barrier(self, thread, barrier_id: int, state,
                           op: Optional[int] = None):
        # The whole leader sequence restarts after a recovery: a thread
        # migrated onto this node mid-generation must be gathered and
        # its updates committed before we (re-)exchange.
        yield from self._guarded(
            thread, lambda: self._leader_sequence(thread, barrier_id,
                                                  state, op))
        return None

    def _leader_sequence(self, thread, barrier_id: int, state,
                         op: Optional[int] = None):
        if thread.thread_id in self._inflight:
            # A pre-failure pipeline paused mid-release still holds its
            # committed pages locked; finish it *before* gathering --
            # a straggler may need those pages to make progress, and it
            # commits only its original page set anyway.
            yield from self._release_pipeline(thread, None)
        if self.barrier_done.get(barrier_id, 0) > state["epoch"]:
            # Recovery reconciliation proved this generation completed
            # globally while we were parked (the reply died with the
            # old manager, or a restored thread's checkpoint epoch
            # witnessed it). Our arrival-time commit already ran; the
            # recovery exchange re-distributed its effects -- pass
            # through instead of gathering stragglers that have moved
            # on to later epochs.
            return None
        stale = yield from self._gather_local_stragglers(state)
        if stale:
            return None
        # Fresh commit covering everything dirtied up to the barrier,
        # including writes by threads gathered after a recovery.
        yield from self._release_pipeline(thread, None)
        yield from self._barrier_exchange(thread, barrier_id, op)
        return None
