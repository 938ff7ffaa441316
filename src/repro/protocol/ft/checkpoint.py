"""Remote thread-state checkpointing (paper section 4.4).

At every release, a node ships to its *backup node* (the next live node
in ring order):

* at **point A** (updates committed, before diff propagation): the
  execution state of every local thread other than the releaser, plus a
  ``pending`` record naming the release and its page set and carrying
  the release's computed diffs;
* at **point B** (first diff-propagation phase complete): the releasing
  thread's own state and a ``complete`` record with the node's vector
  timestamp.

Thread states are **double-buffered** per thread: a failure while a
checkpoint is being written must leave the previous complete checkpoint
usable (section 4.5.3).

Because Python cannot snapshot a native stack, a "thread state" here is
the pickled explicit kernel state (``ctx.state``); see apps/base.py for
the replay contract. The pickled size plays the role of the paper's
2-2.8 KB stack, and is charged to the wire and the checkpoint cost
model for real.

The ``pending`` record's diffs are an addition relative to the paper's
text: they make roll-forward possible even when the failed node was
itself one of the two homes of an updated page (in which case the
surviving copy alone cannot reconstruct a completed release). DESIGN.md
discusses this completion of the scheme.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.memory import Diff


@dataclass
class ThreadSlot:
    """One buffer of the double-buffered thread state."""

    seq: int = -1
    blob: bytes = b""


@dataclass
class ReleaseRecord:
    """What the backup knows about one release of its ward."""

    seq: int
    interval: int
    pages: List[int] = field(default_factory=list)
    diffs: Dict[int, bytes] = field(default_factory=dict)
    ts_blob: Optional[bytes] = None  # set by the point-B "complete"

    @property
    def complete(self) -> bool:
        return self.ts_blob is not None


class CheckpointStore:
    """Backup-side storage for one or more wards' recovery state.

    Lives at a node; written via NOTIFY messages so deposits cost real
    wire time; read directly (host-level) during recovery, which models
    the backup node locally consuming its own memory.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        #: (ward_node, tid) -> [slot0, slot1]
        self._threads: Dict[Tuple[int, int], List[ThreadSlot]] = {}
        #: ward_node -> latest pending release record.
        self._pending: Dict[int, ReleaseRecord] = {}
        #: ward_node -> latest *complete* release record.
        self._completed: Dict[int, ReleaseRecord] = {}
        #: ward_node -> interval -> pages (mirrored write notices).
        self.interval_mirror: Dict[int, Dict[int, List[int]]] = {}

    # -- writes (driven by incoming checkpoint messages) -----------------

    def store(self, body: tuple) -> dict:
        """Store one shipped checkpoint record, as the ward sends it to
        its backup and keeps it in its own self-mirror: ``("state",
        ward, tid, seq, blob)``, ``("pending", ward, seq, interval,
        pages, diff_blobs, horizon)`` or ``("complete", ward, seq,
        ts_blob)``. Returns the CHECKPOINT_STORED hook payload."""
        kind = body[0]
        if kind == "state":
            _k, ward, tid, seq, blob = body
            self.store_thread_state(ward, tid, seq, blob)
            return dict(kind=kind, ward=ward, tid=tid, seq=seq, blob=blob)
        if kind == "pending":
            _k, ward, seq, interval, pages, diff_blobs, horizon = body
            self.store_pending(ward, ReleaseRecord(
                seq=seq, interval=interval, pages=list(pages),
                diffs=dict(diff_blobs)))
            self.trim_mirror(ward, horizon)
            return dict(kind=kind, ward=ward, seq=seq, interval=interval,
                        pages=list(pages))
        if kind == "complete":
            _k, ward, seq, ts_blob = body
            self.store_complete(ward, seq, ts_blob)
            return dict(kind=kind, ward=ward, seq=seq)
        raise ProtocolError(f"unknown checkpoint record {kind!r}")

    def store_thread_state(self, ward: int, tid: int, seq: int,
                           blob: bytes) -> None:
        slots = self._threads.setdefault((ward, tid),
                                         [ThreadSlot(), ThreadSlot()])
        slot = slots[seq % 2]
        slot.seq = seq
        slot.blob = blob

    def store_pending(self, ward: int, record: ReleaseRecord) -> None:
        self._pending[ward] = record
        if record.pages:
            # An empty release (nothing committed) reuses the previous
            # interval number; it must not clobber that interval's
            # mirrored write notices.
            self.interval_mirror.setdefault(ward, {})[record.interval] = \
                list(record.pages)

    def store_complete(self, ward: int, seq: int, ts_blob: bytes) -> None:
        record = self._pending.get(ward)
        if record is not None and record.seq == seq:
            record.ts_blob = ts_blob
            self._completed[ward] = record
            self._coalesce_mirror(ward, record.interval)

    def _coalesce_mirror(self, ward: int, horizon: int) -> None:
        """Bound the mirror: fold write notices of intervals below the
        newest *complete* release into that release's entry.

        Recovery only ever replays the mirror to nodes whose vector
        timestamp is *behind* an interval; a node whose timestamp
        already covers ``horizon`` received the notices for every
        earlier interval with the timestamp itself, so attributing the
        folded pages to ``horizon`` at worst re-invalidates a page at a
        lagging node (safe: the next access re-fetches the committed
        copy). A pending-but-incomplete release always has an interval
        at or above ``horizon`` and is never folded, so rollback can
        still drop exactly its own notices. Net effect: between barrier
        trims the mirror holds at most the horizon entry plus one
        in-flight interval, instead of growing per release forever."""
        mirror = self.interval_mirror.get(ward)
        if not mirror:
            return
        stale = [i for i in mirror if i < horizon]
        if not stale:
            return
        folded = set(mirror.get(horizon, ()))
        for interval in stale:
            folded.update(mirror.pop(interval))
        mirror[horizon] = sorted(folded)

    # -- reads (recovery, host level) ---------------------------------------

    def latest_thread_state(self, ward: int, tid: int,
                            max_seq: Optional[int] = None
                            ) -> Optional[dict]:
        """The newest usable thread state.

        ``max_seq`` implements section 4.5.3's slot selection: states
        saved during a release that never reached point B describe a
        continuation whose updates were rolled back, so only slots with
        ``seq <= max_seq`` (the last *complete* release) are valid.
        Double buffering guarantees the previous release's slot is
        still intact.
        """
        slots = self._threads.get((ward, tid))
        if not slots:
            return None
        usable = [s for s in slots if s.seq >= 0
                  and (max_seq is None or s.seq <= max_seq)]
        if not usable:
            return None
        best = max(usable, key=lambda s: s.seq)
        return pickle.loads(best.blob)

    def max_valid_seq(self, ward: int) -> int:
        """Highest release seq whose checkpoint states may be used."""
        pending = self._pending.get(ward)
        if pending is None:
            return 0
        return pending.seq if pending.complete else pending.seq - 1

    def pending_release(self, ward: int) -> Optional[ReleaseRecord]:
        return self._pending.get(ward)

    def last_complete_release(self, ward: int) -> Optional[ReleaseRecord]:
        return self._completed.get(ward)

    def release_diffs(self, record: ReleaseRecord) -> Dict[int, Diff]:
        return {page: Diff.decode(blob)
                for page, blob in record.diffs.items()}

    def trim_mirror(self, ward: int, horizon: int) -> None:
        """Drop mirrored write notices the whole cluster has seen.

        ``horizon`` is the ward's interval as of its last completed
        barrier: the barrier distributed those notices to every node,
        so a recovery of the ward never needs to re-broadcast them.
        """
        mirror = self.interval_mirror.get(ward)
        if not mirror:
            return
        for interval in [i for i in mirror if i <= horizon]:
            del mirror[interval]

    def absorb(self, source: "CheckpointStore", ward: int) -> int:
        """Adopt ``ward``'s full recovery state from ``source``.

        Used when a ward's backup node dies: the ward copies its own
        self-mirror (everything it ever shipped, confirmed) to the new
        backup, so the checkpoint *history* -- not just the live
        release metadata -- survives back-to-back failures. Returns the
        approximate byte volume copied (for recovery cost accounting).
        """
        nbytes = 0
        for (src_ward, tid), slots in source._threads.items():
            if src_ward != ward:
                continue
            self._threads[(ward, tid)] = [
                ThreadSlot(seq=s.seq, blob=s.blob) for s in slots]
            nbytes += sum(len(s.blob) for s in slots)
        for table, mine in ((source._pending, self._pending),
                            (source._completed, self._completed)):
            record = table.get(ward)
            if record is not None:
                mine[ward] = ReleaseRecord(
                    seq=record.seq, interval=record.interval,
                    pages=list(record.pages), diffs=dict(record.diffs),
                    ts_blob=record.ts_blob)
                nbytes += sum(len(b) for b in record.diffs.values())
        mirror = source.interval_mirror.get(ward)
        if mirror:
            self.interval_mirror[ward] = {
                interval: list(pages) for interval, pages in mirror.items()}
            nbytes += 16 * sum(len(p) for p in mirror.values())
        return nbytes

    def slot_seqs(self, ward: int, tid: int) -> List[int]:
        """The seqs currently held in a thread's two slots (diagnostic
        and invariant-checking aid; -1 marks a never-written slot)."""
        slots = self._threads.get((ward, tid))
        if not slots:
            return []
        return [s.seq for s in slots]

    def forget_ward(self, ward: int) -> None:
        """Drop a ward's state (it failed and has been recovered)."""
        self._threads = {k: v for k, v in self._threads.items()
                         if k[0] != ward}
        self._pending.pop(ward, None)
        self._completed.pop(ward, None)
        # interval_mirror is kept: recovery may still serve it.


def encode_thread_state(state: dict) -> bytes:
    """Pickle a kernel's explicit state (the 'context + stack')."""
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
