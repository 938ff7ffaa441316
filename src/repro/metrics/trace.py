"""Protocol event tracing.

Subscribes to the cluster's hook bus and records a bounded, structured
event log: releases, diff phases, checkpoints, barriers, lock traffic,
failures and recovery stages. Useful for debugging protocol behaviour
and for asserting event *orderings* in tests (e.g. "point B always
precedes the lock handover of the same release").
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import (Deque, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.cluster import Hooks

#: Hooks captured by default (all protocol-level hook points).
DEFAULT_EVENTS = (
    Hooks.RELEASE_START,
    Hooks.RELEASE_COMMITTED,
    Hooks.DIFF_PHASE1_DONE,
    Hooks.DIFF_PHASE2_START,
    Hooks.DIFF_PHASE2_DONE,
    Hooks.RELEASE_DONE,
    Hooks.CHECKPOINT_A,
    Hooks.CHECKPOINT_B,
    Hooks.BARRIER_ENTER,
    Hooks.BARRIER_EXIT,
    Hooks.LOCK_ACQUIRED,
    Hooks.LOCK_RELEASED,
    Hooks.PAGE_FAULT,
    Hooks.FAILURE_DETECTED,
    Hooks.RECOVERY_START,
    Hooks.RECOVERY_DONE,
    Hooks.THREAD_RESUMED,
)

#: Everything, including the dense per-diff / per-checkpoint events --
#: what ``repro replay`` records so a bisection can step between
#: individual diff sends, applies, checkpoint stores and home remaps --
#: plus the span-begin hooks the flight recorder turns into duration
#: slices (lock wait, page-fault service, diff phase 1, checkpoints).
FULL_EVENTS = DEFAULT_EVENTS + (
    Hooks.DIFF_SEND,
    Hooks.DIFF_APPLY,
    Hooks.HOME_REMAP,
    Hooks.RECOVERY_RECONCILE,
    Hooks.CHECKPOINT_STORED,
    Hooks.ACQUIRE_START,
    Hooks.PAGE_FAULT_DONE,
    Hooks.DIFF_PHASE1_START,
    Hooks.CHECKPOINT_A_START,
    Hooks.CHECKPOINT_B_START,
    Hooks.REREPLICATE_START,
    Hooks.REREPLICATE_DONE,
)


#: Exact types that project to themselves (most payload values).
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _jsonable(value):
    """Best-effort JSON projection of hook payload values (blobs are
    summarized -- replay needs event identity and timing, not bytes)."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"__bytes__": len(value)}
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _PLAIN else _jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): v if type(v) in _PLAIN else _jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


#: The trace exports' deterministic form: sorted keys, no whitespace.
canonical_json = json.JSONEncoder(sort_keys=True,
                                  separators=(",", ":")).encode


def canonical_items(items: Sequence, sep: str = "",
                    size: int = 1024) -> Iterator[bytes]:
    """``canonical_json(items)`` without its brackets, ``size`` elements
    a chunk, so a file and a hash can be fed without the whole array
    ever being one string. ``sep`` (``","`` when continuing an array)
    goes before the first element."""
    for at in range(0, len(items), size):
        yield (sep + canonical_json(items[at:at + size])[1:-1]).encode()
        sep = ","


@dataclass(frozen=True)
class TraceEvent:
    """One recorded protocol event."""

    time_us: float
    event: str
    node: int
    info: dict

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.info.items())
                          if not isinstance(v, (list, dict)))
        return f"{self.time_us:12.2f}  {self.event:20s} node={self.node} " \
               f"{extras}"


class ProtocolTrace:
    """Bounded recorder of protocol hook events.

    Attach before the run::

        trace = ProtocolTrace(runtime.cluster, capacity=10_000)
        runtime.run()
        for ev in trace.select(Hooks.RECOVERY_DONE):
            print(ev)
    """

    def __init__(self, cluster, events: Iterable[str] = DEFAULT_EVENTS,
                 capacity: int = 100_000) -> None:
        self.cluster = cluster
        self.capacity = capacity
        self.dropped = 0
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._subscribed: List[str] = list(events)
        for name in self._subscribed:
            cluster.hooks.on(name, self._make_recorder(name))

    def _make_recorder(self, name: str):
        def record(node_id: int, **info) -> None:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(TraceEvent(
                self.cluster.engine.now, name, node_id, info))
        return record

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def select(self, event: str, node: Optional[int] = None
               ) -> List[TraceEvent]:
        return [ev for ev in self._events
                if ev.event == event
                and (node is None or ev.node == node)]

    def between(self, start_us: float, end_us: float) -> List[TraceEvent]:
        return [ev for ev in self._events
                if start_us <= ev.time_us <= end_us]

    def first(self, event: str) -> Optional[TraceEvent]:
        for ev in self._events:
            if ev.event == event:
                return ev
        return None

    def assert_ordering(self, earlier: str, later: str,
                        node: Optional[int] = None) -> None:
        """Raise AssertionError unless every ``later`` event on a node
        is preceded by at least as many ``earlier`` events there.

        Captures happened-before protocol invariants, e.g. every
        DIFF_PHASE2_START must follow a DIFF_PHASE1_DONE of the same
        node (point B before the committed-copy update).

        A trace that overflowed its capacity has lost its oldest
        events, so counting-based ordering claims are meaningless on
        it; that failure mode is loud, not silent."""
        if self.dropped:
            raise AssertionError(
                f"trace dropped {self.dropped} event(s) (capacity "
                f"{self.capacity}); ordering assertions are unreliable "
                f"on a truncated log -- raise the capacity")
        counts: dict = {}
        for ev in self._events:
            if node is not None and ev.node != node:
                continue
            slot = counts.setdefault(ev.node, [0, 0])
            if ev.event == earlier:
                slot[0] += 1
            elif ev.event == later:
                slot[1] += 1
                if slot[1] > slot[0]:
                    raise AssertionError(
                        f"node {ev.node}: {later!r} #{slot[1]} at "
                        f"{ev.time_us:.1f}us has no preceding "
                        f"{earlier!r}")

    def dump(self, limit: int = 100) -> str:
        lines = [str(ev) for ev in list(self._events)[-limit:]]
        if self.dropped:
            lines.insert(0, f"... {self.dropped} earlier events dropped")
        return "\n".join(lines)

    # -- structured persistence (the ``repro replay`` format) -----------

    def export_jsonl(self, path, header: Optional[dict] = None) -> int:
        """Write the trace as JSON lines: one header object
        (``{"header": {...}}``) followed by one event per line.
        Returns the number of events written.

        Deque eviction is not silent: the header always carries a
        ``dropped_events`` count so a consumer (``load_jsonl``, replay,
        ordering checks) can tell a complete log from a truncated one.
        """
        count = 0
        merged = dict(_jsonable(header)) if header is not None else {}
        merged["dropped_events"] = self.dropped
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": merged}) + "\n")
            for ev in self._events:
                fh.write(json.dumps({
                    "t": ev.time_us, "event": ev.event, "node": ev.node,
                    "info": _jsonable(ev.info)}) + "\n")
                count += 1
        return count


def load_jsonl(path) -> Tuple[Optional[dict], List[TraceEvent]]:
    """Read a trace written by :meth:`ProtocolTrace.export_jsonl`.
    Returns ``(header, events)``; header is None if absent."""
    header: Optional[dict] = None
    events: List[TraceEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "header" in obj:
                header = obj["header"]
            elif "event" in obj:
                events.append(TraceEvent(
                    time_us=obj["t"], event=obj["event"],
                    node=obj["node"], info=obj.get("info", {})))
    return header, events
