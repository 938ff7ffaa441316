"""Flight recorder: hook-bus capture and Perfetto timeline export.

:class:`FlightRecorder` subscribes to every :data:`FULL_EVENTS` hook
and keeps a bounded in-memory log of ``(time, event, node, payload)``.
:meth:`FlightRecorder.to_chrome_trace` turns that log into the Chrome
trace-event JSON that https://ui.perfetto.dev renders: one *process*
per node (plus a synthetic "cluster" process for failure/recovery
activity), one *track* per application thread plus a per-node
"protocol" track for the serialized release pipeline, duration slices
for lock hold/wait, barrier waits, page-fault service, diff phases 1
and 2 and checkpoint points A/B, and instants for the dense audit
events (diff sends/applies, commits, checkpoint stores, home remaps).

Timestamps are **simulated microseconds** verbatim -- the trace-event
format's native unit -- so the Perfetto ruler reads in simulated time.

The export is deterministic: events are emitted in capture order with
sorted JSON keys and no wall-clock or id()-derived values, so the same
seeded run always produces a byte-identical trace
(:meth:`FlightRecorder.digest` pins that in tests).

It is also single-pass: one walk over the log assembles the events,
encodes them in chunks into the file and the hash, and tabulates the
span inventory. Only those by-products are kept (recording anything
drops them): a digest or a report after an export costs no second
assembly, and no document waits with the observers for the collector.
"""

from __future__ import annotations

import hashlib
from collections import deque
from types import SimpleNamespace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster import Hooks
from repro.metrics.trace import (FULL_EVENTS, _jsonable, canonical_items,
                                 canonical_json)
from repro.obs import instrumentation

#: Track (tid) layout inside a node process: tid 0 is the protocol
#: pipeline lane (releases are serialized per node, so its slices
#: nest cleanly); application thread ``t`` gets tid ``1 + t``.
PROTOCOL_LANE = 0

#: Tracks inside the synthetic cluster process.
RECOVERY_LANE = 0
WATCHDOG_LANE = 1

_CAT = {
    Hooks.ACQUIRE_START: "lock", Hooks.LOCK_ACQUIRED: "lock",
    Hooks.LOCK_RELEASED: "lock",
    Hooks.RELEASE_START: "release", Hooks.RELEASE_DONE: "release",
    Hooks.RELEASE_COMMITTED: "release",
    Hooks.PAGE_FAULT: "fault", Hooks.PAGE_FAULT_DONE: "fault",
    Hooks.BARRIER_ENTER: "barrier", Hooks.BARRIER_EXIT: "barrier",
    Hooks.DIFF_PHASE1_START: "diff", Hooks.DIFF_PHASE1_DONE: "diff",
    Hooks.DIFF_PHASE2_START: "diff", Hooks.DIFF_PHASE2_DONE: "diff",
    Hooks.DIFF_SEND: "diff", Hooks.DIFF_APPLY: "diff",
    Hooks.CHECKPOINT_A_START: "checkpoint", Hooks.CHECKPOINT_A: "checkpoint",
    Hooks.CHECKPOINT_B_START: "checkpoint", Hooks.CHECKPOINT_B: "checkpoint",
    Hooks.CHECKPOINT_STORED: "checkpoint",
    Hooks.FAILURE_DETECTED: "recovery", Hooks.RECOVERY_START: "recovery",
    Hooks.RECOVERY_DONE: "recovery", Hooks.HOME_REMAP: "recovery",
    Hooks.RECOVERY_RECONCILE: "recovery", Hooks.THREAD_RESUMED: "recovery",
    Hooks.REREPLICATE_START: "recovery", Hooks.REREPLICATE_DONE: "recovery",
}


class FlightRecorder:
    """Bounded capture of the full hook stream, exportable as a
    Perfetto/Chrome trace. Attach before ``runtime.run()``."""

    def __init__(self, runtime, capacity: int = 1_000_000) -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        #: pid of the synthetic cluster-wide process in the trace.
        self.cluster_pid = runtime.config.num_nodes
        self.capacity = capacity
        self.dropped = 0
        self._log: Deque[Tuple[float, str, int, dict]] = deque(
            maxlen=capacity)
        #: :meth:`_stream`'s by-products; None again once anything is recorded.
        self._memo: Optional[SimpleNamespace] = None
        self._hooks = runtime.cluster.hooks
        self._subscribed: List[Tuple[str, Any]] = []
        for name in FULL_EVENTS:
            fn = self._make_recorder(name)
            self._hooks.on(name, fn)
            self._subscribed.append((name, fn))

    def _make_recorder(self, name: str):
        def record(node_id: int, **info) -> None:
            instrumentation.bump("recorder")
            if len(self._log) == self.capacity:
                self.dropped += 1
            self._log.append((self.engine.now, name, node_id, info))
            self._memo = None
        return record

    def detach(self) -> None:
        for name, fn in self._subscribed:
            self._hooks.off(name, fn)
        self._subscribed.clear()

    def __len__(self) -> int:
        return len(self._log)

    def note(self, name: str, node_id: int, **info) -> None:
        """Inject a synthetic event (used by the stall watchdog so its
        findings land on the timeline next to the stall itself)."""
        self._log.append((self.engine.now, name, node_id, info))
        self._memo = None

    # ------------------------------------------------------------------
    # Chrome trace-event assembly
    # ------------------------------------------------------------------

    def to_chrome_trace(self, counters: Optional[List[dict]] = None) -> dict:
        """Build the ``{"traceEvents": [...]}`` document.

        ``counters`` (optional) are pre-built ``"ph": "C"`` events from
        :meth:`repro.obs.timeseries.TimeSeriesSampler.to_chrome_counters`,
        appended so gauges render under the same timeline. Assembled
        anew on every call: the caller owns the returned document.
        """
        events, other_data = self._assemble()
        return {"traceEvents": events + list(counters or ()),
                "displayTimeUnit": "ms", "otherData": other_data}

    def _assemble(self) -> Tuple[List[dict], dict]:
        """(metadata + body events, ``otherData``) from the log."""
        out: List[dict] = []
        # (pid, tid) -> stack of open slice names. Slices must nest per
        # track; every emitter below goes through _begin/_end so a
        # missing end (node death, recovery rewind) can be repaired
        # instead of corrupting the track.
        open_spans: Dict[Tuple[int, int], List[str]] = {}
        last_ts = 0.0

        def begin(pid, tid, ts, name, cat, args=None):
            ev = {"ph": "B", "pid": pid, "tid": tid, "ts": ts,
                  "name": name, "cat": cat}
            if args:
                ev["args"] = _jsonable(args)
            out.append(ev)
            open_spans.setdefault((pid, tid), []).append(name)

        def end(pid, tid, ts, name):
            stack = open_spans.get((pid, tid))
            if not stack or name not in stack:
                return  # unmatched end (e.g. span opened pre-capture)
            while stack:
                top = stack.pop()
                out.append({"ph": "E", "pid": pid, "tid": tid, "ts": ts,
                            "name": top})
                if top == name:
                    break

        def instant(pid, tid, ts, name, cat, args=None, scope="t"):
            ev = {"ph": "i", "pid": pid, "tid": tid, "ts": ts,
                  "name": name, "cat": cat, "s": scope}
            if args:
                ev["args"] = _jsonable(args)
            out.append(ev)

        def close_process(pid, ts):
            """A node died: every slice open on any of its tracks ends
            now (the work it represented stopped with the node)."""
            for (p, tid), stack in open_spans.items():
                if p != pid:
                    continue
                while stack:
                    out.append({"ph": "E", "pid": p, "tid": tid,
                                "ts": ts, "name": stack.pop()})

        for ts, name, node, info in self._log:
            last_ts = max(last_ts, ts)
            cat = _CAT.get(name, "misc")
            tid = info.get("tid", info.get("thread"))
            # Thread-lane events always carry a tid; fall back to the
            # protocol lane rather than crash if a payload omits it.
            lane = PROTOCOL_LANE if tid is None else 1 + tid

            # -- application-thread tracks ------------------------------
            if name == Hooks.ACQUIRE_START:
                begin(node, lane, ts, f"lock {info['lock']} wait", cat, info)
            elif name == Hooks.LOCK_ACQUIRED:
                end(node, lane, ts, f"lock {info['lock']} wait")
                begin(node, lane, ts, f"lock {info['lock']} hold", cat, info)
            elif name == Hooks.RELEASE_START:
                end(node, lane, ts, f"lock {info['lock']} hold")
                begin(node, lane, ts, f"release lock {info['lock']}",
                      cat, info)
            elif name == Hooks.RELEASE_DONE:
                end(node, lane, ts, f"release lock {info['lock']}")
            elif name == Hooks.LOCK_RELEASED:
                instant(node, lane, ts, f"lock {info['lock']} handover", cat)
            elif name == Hooks.PAGE_FAULT:
                kind = "write" if info.get("write") else "read"
                begin(node, lane, ts,
                      f"fault page {info['page']} ({kind})", cat, info)
            elif name == Hooks.PAGE_FAULT_DONE:
                kind = "write" if info.get("write") else "read"
                end(node, lane, ts, f"fault page {info['page']} ({kind})")
            elif name == Hooks.BARRIER_ENTER:
                begin(node, lane, ts, f"barrier {info['barrier']}",
                      cat, info)
            elif name == Hooks.BARRIER_EXIT:
                end(node, lane, ts, f"barrier {info['barrier']}")
            elif name == Hooks.THREAD_RESUMED:
                instant(node, lane, ts, "thread resumed", cat, info)

            # -- per-node protocol lane (serialized releases) -----------
            elif name == Hooks.DIFF_PHASE1_START:
                begin(node, PROTOCOL_LANE, ts, "diff phase 1", cat, info)
            elif name == Hooks.DIFF_PHASE1_DONE:
                end(node, PROTOCOL_LANE, ts, "diff phase 1")
            elif name == Hooks.CHECKPOINT_A_START:
                begin(node, PROTOCOL_LANE, ts, "checkpoint A", cat, info)
            elif name == Hooks.CHECKPOINT_A:
                end(node, PROTOCOL_LANE, ts, "checkpoint A")
            elif name == Hooks.CHECKPOINT_B_START:
                begin(node, PROTOCOL_LANE, ts, "checkpoint B", cat, info)
            elif name == Hooks.CHECKPOINT_B:
                end(node, PROTOCOL_LANE, ts, "checkpoint B")
            elif name == Hooks.DIFF_PHASE2_START:
                begin(node, PROTOCOL_LANE, ts, "diff phase 2", cat, info)
            elif name == Hooks.DIFF_PHASE2_DONE:
                end(node, PROTOCOL_LANE, ts, "diff phase 2")
            elif name == Hooks.RELEASE_COMMITTED:
                instant(node, PROTOCOL_LANE, ts, "interval commit", cat,
                        {"interval": info.get("interval"),
                         "seq": info.get("seq"),
                         "pages": len(info.get("pages") or ())})
            elif name == Hooks.DIFF_SEND:
                instant(node, PROTOCOL_LANE, ts, "diff send", cat, info)
            elif name == Hooks.DIFF_APPLY:
                instant(node, PROTOCOL_LANE, ts, "diff apply", cat, info)
            elif name == Hooks.CHECKPOINT_STORED:
                instant(node, PROTOCOL_LANE, ts, "checkpoint stored", cat,
                        {"kind": info.get("kind"), "ward": info.get("ward"),
                         "seq": info.get("seq")})

            # -- cluster process (failure / recovery / watchdog) --------
            elif name == Hooks.FAILURE_DETECTED:
                close_process(node, ts)
                instant(self.cluster_pid, RECOVERY_LANE, ts,
                        f"node {node} failed", cat, info, scope="g")
                begin(self.cluster_pid, RECOVERY_LANE, ts,
                      f"quiesce (node {node} down)", cat, info)
            elif name == Hooks.RECOVERY_START:
                end(self.cluster_pid, RECOVERY_LANE, ts,
                    f"quiesce (node {node} down)")
                begin(self.cluster_pid, RECOVERY_LANE, ts,
                      f"recovery (node {node})", cat, info)
            elif name == Hooks.RECOVERY_DONE:
                end(self.cluster_pid, RECOVERY_LANE, ts,
                    f"recovery (node {node})")
            elif name == Hooks.REREPLICATE_START:
                begin(self.cluster_pid, RECOVERY_LANE, ts,
                      f"re-replicate (node {node})", cat, info)
            elif name == Hooks.REREPLICATE_DONE:
                end(self.cluster_pid, RECOVERY_LANE, ts,
                    f"re-replicate (node {node})")
            elif name == Hooks.HOME_REMAP:
                instant(self.cluster_pid, RECOVERY_LANE, ts,
                        "home remap", cat, info)
            elif name == Hooks.RECOVERY_RECONCILE:
                instant(self.cluster_pid, RECOVERY_LANE, ts,
                        f"reconcile: {info.get('action')}", cat, info)
            elif name == "stall":
                instant(self.cluster_pid, WATCHDOG_LANE, ts,
                        "stall detected", "watchdog", info, scope="g")
            else:
                instant(node, PROTOCOL_LANE, ts, name, cat, info)

        # Repair any slice still open at the end of capture (a thread
        # parked mid-operation when the run was capped, or a slice whose
        # end hook never fired) so the document stays well-formed.
        auto_closed = 0
        for (pid, tid), stack in sorted(open_spans.items()):
            while stack:
                out.append({"ph": "E", "pid": pid, "tid": tid,
                            "ts": last_ts, "name": stack.pop()})
                auto_closed += 1

        return self._metadata(out) + out, {
            "clock": "simulated_us",
            "dropped_events": self.dropped,
            "auto_closed_spans": auto_closed,
            "num_nodes": self.runtime.config.num_nodes,
        }

    def _metadata(self, body: List[dict]) -> List[dict]:
        """Process/track naming and ordering metadata for every (pid,
        tid) the body touches, emitted in sorted order so the document
        stays deterministic."""
        tracks = sorted({(ev["pid"], ev["tid"]) for ev in body})
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
            self._stream(None)
        return {name: dict(slot)
                for name, slot in self._memo.inventory.items()}

    @staticmethod
    def _inventory(events: List[dict]) -> Dict[str, Dict[str, float]]:
        open_at: Dict[Tuple[int, int], List[Tuple[str, float]]] = {}
        stats: Dict[str, Dict[str, float]] = {}
        for ev in events:
            key = (ev["pid"], ev["tid"])
            if ev["ph"] == "B":
                open_at.setdefault(key, []).append((ev["name"], ev["ts"]))
            elif ev["ph"] == "E" and open_at.get(key):
                name, t0 = open_at[key].pop()
                slot = stats.setdefault(name, {"count": 0, "total_us": 0.0})
                slot["count"] += 1
                slot["total_us"] += ev["ts"] - t0
        return stats

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def _stream(self, counters: Optional[List[dict]],
                write: Optional[Callable[[bytes], Any]] = None):
        """Feed the canonical serialization to ``write`` chunk by chunk
        and return its sha256. Assembling the body leaves by-products in
        :attr:`_memo` (hash state after it, event ``count``, span
        ``inventory``); with those and no ``write``, only ``counters``
        are encoded."""
        memo = self._memo
        resume = write is None and memo is not None
        sha = memo.sha.copy() if resume else hashlib.sha256()

        def feed(chunks):
            for chunk in chunks:
                sha.update(chunk)
                if write is not None:
                    write(chunk)

        if not resume:
            events, other_data = self._assemble()
            head = canonical_json({"displayTimeUnit": "ms",
                                   "otherData": other_data})
            feed([(head[:-1] + ',"traceEvents":[').encode()])
            feed(canonical_items(events))
            memo = self._memo = SimpleNamespace(
                sha=sha.copy(), count=len(events),
                inventory=self._inventory(events))
            del events  # a few MB of dicts, not needed past this point
        feed(canonical_items(counters or (), "," if memo.count else ""))
        feed([b"]}"])
        return sha

    def to_json(self, counters: Optional[List[dict]] = None) -> str:
        """Deterministic serialization (sorted keys, no whitespace)."""
        chunks: List[bytes] = []
        self._stream(counters, chunks.append)
        return b"".join(chunks).decode()

    def export(self, path, counters: Optional[List[dict]] = None) -> int:
        """Write the trace JSON; returns the number of traceEvents."""
        with open(path, "wb") as fh:
            self._stream(counters, fh.write)
        return self._memo.count + len(counters or ())

    def digest(self, counters: Optional[List[dict]] = None) -> str:
        """sha256 of the serialized trace -- the determinism fingerprint
        (same seeds => same digest, regardless of host or job count)."""
        return self._stream(counters).hexdigest()
