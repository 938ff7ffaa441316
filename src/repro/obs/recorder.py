"""Flight recorder: the Perfetto timeline export of the event log.

:class:`FlightRecorder` is a :class:`~repro.metrics.trace.ProtocolTrace`
of every :data:`FULL_EVENTS` hook -- one bounded log, one attach path --
that can also turn what it holds into the Chrome trace-event JSON that
https://ui.perfetto.dev renders: one *process* per node (plus a
synthetic "cluster" process for failure/recovery activity), one *track*
per application thread plus a per-node "protocol" track for the
serialized release pipeline, and the duration slices and instants the
schema in :mod:`repro.metrics.trace` (``SPANS`` / ``INSTANTS``) assigns
to each hook.

Timestamps are **simulated microseconds** verbatim -- the trace-event
format's native unit -- so the Perfetto ruler reads in simulated time.

The export is deterministic: events are emitted in capture order with
sorted JSON keys and no wall-clock or id()-derived values, so the same
seeded run always produces a byte-identical trace
(:meth:`FlightRecorder.digest` pins that in tests).

It is also streamed: one walk over the log makes the events a log
entry at a time, encodes them 1024 a chunk and tallies the event
count, the tracks touched and the span inventory on the way; extra
events (sampler counters, causal flow arrows) are any iterable,
encoded as they arrive. The head's ``otherData``
(``auto_closed_spans``) and the track metadata precede the body but
are known only after the walk, so the body is encoded first, into an
anonymous temporary file, and the head is composed last and written
ahead of it. Nothing proportional to the log is held besides the log.
Only the by-products are kept (recording anything drops them): a
digest or a report after an export costs no second walk, and no
document waits with the observers for the collector.
"""

from __future__ import annotations

import hashlib
import tempfile
from itertools import chain
from types import SimpleNamespace
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Set, Tuple)

from repro.cluster import Hooks
from repro.metrics.trace import (FULL_EVENTS, INSTANTS, PROTOCOL, RECOVERY,
                                 SPANS, THREAD, Instant, ProtocolTrace,
                                 _jsonable, canonical_items, canonical_json)
from repro.obs import instrumentation

#: Track (tid) layout inside a node process: tid 0 is the protocol
#: pipeline lane (releases are serialized per node, so its slices
#: nest cleanly); application thread ``t`` gets tid ``1 + t``.
PROTOCOL_LANE = 0

#: Tracks inside the synthetic cluster process.
RECOVERY_LANE = 0
WATCHDOG_LANE = 1

#: Body events the walk hands on at a time, at least (a log entry's
#: events stay together).
_BATCH = 1024

#: Bytes read back at a time from the spilled body.
_SPILL_BLOCK = 1 << 18

#: The schema by event name: (spans it ends, instants, spans it begins).
_PLAN: Dict[str, Tuple[list, list, list]] = {}
for _span in SPANS:
    _PLAN.setdefault(_span.end, ([], [], []))[0].append(_span)
    _PLAN.setdefault(_span.begin, ([], [], []))[2].append(_span)
for _row in INSTANTS:
    _PLAN.setdefault(_row.hook, ([], [], []))[1].append(_row)


def _label(row, node: int, info: dict) -> str:
    if "{" not in row.label:
        return row.label
    return row.label.format_map({
        **info, "node": node,
        "rw": "write" if info.get("write") else "read"})


def _args(row: Instant, info: dict) -> dict:
    if row.args is None:
        return info
    args = {}
    for key in row.args:
        value = info.get(key)
        args[key] = len(value) if type(value) is list else value
    return args


class FlightRecorder(ProtocolTrace):
    """The full hook stream, exportable as a Perfetto/Chrome trace.
    Attach before ``runtime.run()``."""

    def __init__(self, runtime, capacity: int = 1_000_000) -> None:
        super().__init__(runtime.cluster, FULL_EVENTS, capacity)
        self.runtime = runtime
        #: pid of the synthetic cluster-wide process in the trace.
        self.cluster_pid = runtime.config.num_nodes
        #: :meth:`_stream`'s by-products; None again once anything is recorded.
        self._memo: Optional[SimpleNamespace] = None

    def record(self, name: str, node_id: int, info: dict) -> None:
        instrumentation.bump("recorder")
        self._memo = None
        ProtocolTrace.record(self, name, node_id, info)

    def _track(self, lane: str, node: int, info: dict) -> Tuple[int, int]:
        """(pid, tid) of a schema lane for one event."""
        if lane == THREAD:
            # Thread-lane events always carry a tid; fall back to the
            # protocol lane rather than crash if a payload omits it.
            tid = info.get("tid", info.get("thread"))
            return node, PROTOCOL_LANE if tid is None else 1 + tid
        if lane == PROTOCOL:
            return node, PROTOCOL_LANE
        return self.cluster_pid, (RECOVERY_LANE if lane == RECOVERY
                                  else WATCHDOG_LANE)

    # ------------------------------------------------------------------
    # Chrome trace-event assembly
    # ------------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Build the ``{"traceEvents": [...]}`` document. Assembled
        anew on every call: the caller owns the returned document.
        """
        tally = SimpleNamespace()
        body = list(chain.from_iterable(self._assemble(tally)))
        return {"traceEvents": self._metadata(tally.tracks) + body,
                "displayTimeUnit": "ms",
                "otherData": self._other_data(tally)}

    def _assemble(self, tally: SimpleNamespace) -> Iterator[List[dict]]:
        """Walk the log once, yielding the body events in lists of
        about :data:`_BATCH` as the log entries make them. What only the
        end of the walk knows is left in ``tally``: the ``tracks`` the
        body touches, the span ``inventory`` and the ``auto_closed``
        count."""
        out: List[dict] = []
        # (pid, tid) -> stack of open (slice name, begin ts). Slices
        # must nest per track; every emitter below goes through
        # begin/end so a missing end (node death, recovery rewind) can
        # be repaired instead of corrupting the track.
        open_spans: Dict[Tuple[int, int], List[Tuple[str, float]]] = {}
        tracks = set()
        inventory: Dict[str, Dict[str, float]] = {}
        last_ts = 0.0

        def begin(pid, tid, ts, name, cat, args=None):
            ev = {"ph": "B", "pid": pid, "tid": tid, "ts": ts,
                  "name": name, "cat": cat}
            if args:
                ev["args"] = _jsonable(args)
            out.append(ev)
            open_spans.setdefault((pid, tid), []).append((name, ts))

        def close(pid, tid, ts, stack) -> str:
            """End the innermost open slice and book it."""
            name, t0 = stack.pop()
            out.append({"ph": "E", "pid": pid, "tid": tid, "ts": ts,
                        "name": name})
            slot = inventory.get(name)
            if slot is None:
                slot = inventory[name] = {"count": 0, "total_us": 0.0}
            slot["count"] += 1
            slot["total_us"] += ts - t0
            return name

        def end(pid, tid, ts, name):
            stack = open_spans.get((pid, tid))
            if not stack or all(top != name for top, _ in stack):
                return  # unmatched end (e.g. span opened pre-capture)
            while stack and close(pid, tid, ts, stack) != name:
                pass

        def instant(pid, tid, ts, name, cat, args=None, scope="t"):
            ev = {"ph": "i", "pid": pid, "tid": tid, "ts": ts,
                  "name": name, "cat": cat, "s": scope}
            if args:
                ev["args"] = _jsonable(args)
            out.append(ev)
            tracks.add((pid, tid))

        def close_process(pid, ts):
            """A node died: every slice open on any of its tracks ends
            now (the work it represented stopped with the node)."""
            for (p, tid), stack in open_spans.items():
                if p == pid:
                    while stack:
                        close(p, tid, ts, stack)

        for ts, name, node, info in self._events:
            last_ts = max(last_ts, ts)
            if name not in _PLAN:
                # A noted event the schema does not know: plain instant.
                instant(node, PROTOCOL_LANE, ts, name, "misc", info)
            else:
                ends, instants, begins = _PLAN[name]
                if name == Hooks.FAILURE_DETECTED:
                    close_process(node, ts)
                for row in ends:
                    end(*self._track(row.lane, node, info), ts,
                        _label(row, node, info))
                for row in instants:
                    instant(*self._track(row.lane, node, info), ts,
                            _label(row, node, info), row.cat,
                            _args(row, info), row.scope)
                for row in begins:
                    begin(*self._track(row.lane, node, info), ts,
                          _label(row, node, info), row.cat, info)
            if len(out) >= _BATCH:
                yield out
                out = []

        # Repair any slice still open at the end of capture (a thread
        # parked mid-operation when the run was capped, or a slice whose
        # end hook never fired) so the document stays well-formed.
        auto_closed = 0
        for (pid, tid), stack in sorted(open_spans.items()):
            while stack:
                close(pid, tid, last_ts, stack)
                auto_closed += 1
        yield out
        tally.tracks = tracks.union(open_spans)
        tally.inventory = inventory
        tally.auto_closed = auto_closed

    def _other_data(self, tally: SimpleNamespace) -> dict:
        return {"clock": "simulated_us",
                "dropped_events": self.dropped,
                "auto_closed_spans": tally.auto_closed,
                "num_nodes": self.runtime.config.num_nodes}

    def _metadata(self, tracks: Set[Tuple[int, int]]) -> List[dict]:
        """Process/track naming and ordering metadata for every (pid,
        tid) the body touches, emitted in sorted order so the document
        stays deterministic."""
        tracks = sorted(tracks)
        meta: List[dict] = []
        for pid in sorted({p for p, _ in tracks}):
            pname = ("cluster" if pid == self.cluster_pid
                     else f"node {pid}")
            meta.append({"ph": "M", "pid": pid, "tid": 0,
                         "name": "process_name",
                         "args": {"name": pname}})
            meta.append({"ph": "M", "pid": pid, "tid": 0,
                         "name": "process_sort_index",
                         "args": {"sort_index": pid}})
        for pid, tid in tracks:
            if pid == self.cluster_pid:
                tname = ("recovery" if tid == RECOVERY_LANE
                         else "watchdog" if tid == WATCHDOG_LANE
                         else f"track {tid}")
            else:
                tname = ("protocol" if tid == PROTOCOL_LANE
                         else f"thread {tid - 1}")
            meta.append({"ph": "M", "pid": pid, "tid": tid,
                         "name": "thread_name",
                         "args": {"name": tname}})
            meta.append({"ph": "M", "pid": pid, "tid": tid,
                         "name": "thread_sort_index",
                         "args": {"sort_index": tid}})
        return meta

    def span_inventory(self) -> Dict[str, Dict[str, float]]:
        """Per span-name slice count and total duration (what the run
        report tabulates)."""
        if self._memo is None:
            self._stream()
        return {name: dict(slot)
                for name, slot in self._memo.inventory.items()}

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def _stream(self, counters: Optional[Iterable[dict]] = None,
                write: Optional[Callable[[bytes], Any]] = None):
        """Feed the canonical serialization to ``write`` chunk by chunk;
        return its sha256 and its number of events. Walking the log
        leaves by-products in :attr:`_memo` (hash state after the body,
        event ``count``, span ``inventory``); with those and no
        ``write``, only ``counters`` are encoded."""
        memo = self._memo
        resume = write is None and memo is not None
        sha = memo.sha.copy() if resume else hashlib.sha256()

        def feed(chunk: bytes) -> None:
            sha.update(chunk)
            if write is not None:
                write(chunk)

        if not resume:
            tally = SimpleNamespace()
            in_body = 0
            # The head and the track metadata precede the body but are
            # known only after the walk, so the encoded body waits on
            # disk. Metadata exists iff a body does: every body chunk
            # continues the array.
            with tempfile.TemporaryFile() as spill:
                body = chain.from_iterable(self._assemble(tally))
                for size, chunk in canonical_items(body, ","):
                    spill.write(chunk)
                    in_body += size
                meta = self._metadata(tally.tracks)
                head = canonical_json({
                    "displayTimeUnit": "ms",
                    "otherData": self._other_data(tally)})
                feed((head[:-1] + ',"traceEvents":['
                      + canonical_json(meta)[1:-1]).encode())
                spill.seek(0)
                for block in iter(lambda: spill.read(_SPILL_BLOCK), b""):
                    feed(block)
            memo = self._memo = SimpleNamespace(
                sha=sha.copy(), count=len(meta) + in_body,
                inventory=tally.inventory)
        count = memo.count
        for size, chunk in canonical_items(counters or (),
                                           "," if count else ""):
            feed(chunk)
            count += size
        feed(b"]}")
        return sha, count

    def to_json(self, counters: Optional[Iterable[dict]] = None) -> str:
        """Deterministic serialization (sorted keys, no whitespace)."""
        chunks: List[bytes] = []
        self._stream(counters, chunks.append)
        return b"".join(chunks).decode()

    def export(self, path, counters: Optional[Iterable[dict]] = None) -> int:
        """Write the trace JSON; returns the number of traceEvents.
        ``counters`` may be any iterable of extra events, consumed as
        they are written."""
        with open(path, "wb") as fh:
            return self._stream(counters, fh.write)[1]

    def digest(self, counters: Optional[Iterable[dict]] = None) -> str:
        """sha256 of the serialized trace -- the determinism fingerprint
        (same seeds => same digest, regardless of host or job count)."""
        return self._stream(counters)[0].hexdigest()
