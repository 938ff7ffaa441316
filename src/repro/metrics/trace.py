"""Protocol event tracing: the one event log and the one hook schema.

:class:`ProtocolTrace` taps the cluster's hook bus and records a
bounded, structured event log: releases, diff phases, checkpoints,
barriers, lock traffic, failures and recovery stages. Useful for
debugging protocol behaviour and for asserting event *orderings* in
tests (e.g. "point B always precedes the lock handover of the same
release"); :class:`repro.obs.recorder.FlightRecorder` is the same log
with a Perfetto export.

``SPANS`` and ``INSTANTS`` say what each hook means on a timeline, and
``FULL_EVENTS`` -- what the full-stream observers subscribe to -- is
the hooks they name.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from typing import (Deque, Iterable, Iterator, List, NamedTuple, Optional,
                    Tuple)

from repro.cluster import Hooks

#: Timeline lanes a schema row can name: the firing node's track of the
#: application thread its payload names (``tid``, ``thread`` in the
#: barrier hooks; the protocol lane when it names none), the node's
#: serialized release pipeline, and the two tracks of the synthetic
#: cluster process.
THREAD, PROTOCOL, RECOVERY, WATCHDOG = ("thread", "protocol", "recovery",
                                        "watchdog")

#: Synthetic event the stall watchdog notes into the log (not a hook).
STALL = "stall"


class Span(NamedTuple):
    """Schema row: ``begin`` opens a duration slice, ``end`` closes it."""

    begin: str
    end: str
    cat: str
    lane: str
    #: ``str.format`` template over the payload plus ``node`` (the
    #: firing node) and ``rw`` ("write"/"read" from a fault's ``write``).
    label: str


class Instant(NamedTuple):
    """Schema row: ``hook`` marks a point in time."""

    hook: str
    cat: str
    lane: str
    label: str
    #: Payload keys kept as trace args, a list as its length (the dense
    #: events' payloads are summarized); None keeps the whole payload.
    args: Optional[Tuple[str, ...]] = None
    scope: str = "t"


#: What every hook means on the timeline -- the one place that says so.
#: The flight recorder interprets these rows, docs/OBSERVABILITY.md
#: renders them, and ``FULL_EVENTS`` is the hooks they name. A hook that
#: closes one span and opens the next (a granted lock turns "wait" into
#: "hold") is simply named by both rows; at one event ends come first,
#: then instants, then begins.
SPANS = (
    Span(Hooks.ACQUIRE_START, Hooks.LOCK_ACQUIRED, "lock", THREAD,
         "lock {lock} wait"),
    Span(Hooks.LOCK_ACQUIRED, Hooks.RELEASE_START, "lock", THREAD,
         "lock {lock} hold"),
    Span(Hooks.RELEASE_START, Hooks.RELEASE_DONE, "release", THREAD,
         "release lock {lock}"),
    Span(Hooks.PAGE_FAULT, Hooks.PAGE_FAULT_DONE, "fault", THREAD,
         "fault page {page} ({rw})"),
    Span(Hooks.BARRIER_ENTER, Hooks.BARRIER_EXIT, "barrier", THREAD,
         "barrier {barrier}"),
    Span(Hooks.DIFF_PHASE1_START, Hooks.DIFF_PHASE1_DONE, "diff", PROTOCOL,
         "diff phase 1"),
    Span(Hooks.CHECKPOINT_A_START, Hooks.CHECKPOINT_A, "checkpoint",
         PROTOCOL, "checkpoint A"),
    Span(Hooks.CHECKPOINT_B_START, Hooks.CHECKPOINT_B, "checkpoint",
         PROTOCOL, "checkpoint B"),
    Span(Hooks.DIFF_PHASE2_START, Hooks.DIFF_PHASE2_DONE, "diff", PROTOCOL,
         "diff phase 2"),
    Span(Hooks.FAILURE_DETECTED, Hooks.RECOVERY_START, "recovery", RECOVERY,
         "quiesce (node {node} down)"),
    Span(Hooks.RECOVERY_START, Hooks.RECOVERY_DONE, "recovery", RECOVERY,
         "recovery (node {node})"),
    Span(Hooks.REREPLICATE_START, Hooks.REREPLICATE_DONE, "recovery",
         RECOVERY, "re-replicate (node {node})"),
)
INSTANTS = (
    Instant(Hooks.LOCK_RELEASED, "lock", THREAD, "lock {lock} handover",
            args=()),
    Instant(Hooks.THREAD_RESUMED, "recovery", THREAD, "thread resumed"),
    Instant(Hooks.RELEASE_COMMITTED, "release", PROTOCOL, "interval commit",
            args=("interval", "seq", "pages")),
    Instant(Hooks.DIFF_SEND, "diff", PROTOCOL, "diff send"),
    Instant(Hooks.DIFF_APPLY, "diff", PROTOCOL, "diff apply"),
    Instant(Hooks.CHECKPOINT_STORED, "checkpoint", PROTOCOL,
            "checkpoint stored", args=("kind", "ward", "seq")),
    Instant(Hooks.FAILURE_DETECTED, "recovery", RECOVERY,
            "node {node} failed", scope="g"),
    Instant(Hooks.HOME_REMAP, "recovery", RECOVERY, "home remap"),
    Instant(Hooks.RECOVERY_RECONCILE, "recovery", RECOVERY,
            "reconcile: {action}"),
    Instant(STALL, "watchdog", WATCHDOG, "stall detected", scope="g"),
)

#: Every hook the schema names: what the flight recorder, the watchdog
#: and ``repro replay`` subscribe to.
FULL_EVENTS = tuple(dict.fromkeys(
    [hook for span in SPANS for hook in (span.begin, span.end)]
    + [row.hook for row in INSTANTS if row.hook != STALL]))

#: The default capture: protocol-level events without the dense
#: per-diff / per-checkpoint audit points and the span-opening hooks
#: only the timeline needs.
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


def canonical_items(items: Iterable,
                    sep: str = "") -> Iterator[Tuple[int, bytes]]:
    """``canonical_json(list(items))`` without its brackets, 1024
    elements a chunk, so a file and a hash can be fed without the whole
    array ever being one list or one string. Yields (elements in the
    chunk, chunk); ``items`` is consumed as the chunks are. ``sep``
    (``","`` when continuing an array) goes before the first element."""
    items = iter(items)
    while True:
        batch = list(islice(items, 1024))
        if not batch:
            return
        yield len(batch), (sep + canonical_json(batch)[1:-1]).encode()
        sep = ","


class TraceEvent(NamedTuple):
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
        self.engine = cluster.engine
        self.capacity = capacity
        #: Events the bounded log has evicted, hooks and notes alike.
        self.dropped = 0
        #: Bare ``(time_us, event, node, info)`` rows: an append builds
        #: one tuple; readers get them as :class:`TraceEvent`.
        self._events: Deque[tuple] = deque(maxlen=capacity)
        self._tap = cluster.hooks.tap(events, self.record)

    def record(self, name: str, node_id: int, info: dict) -> None:
        """The stream sink: log one event at the current time."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append((self.engine.now, name, node_id, info))

    def note(self, name: str, node_id: int, **info) -> None:
        """Log a synthetic event (the stall watchdog's findings land
        next to the stall itself this way)."""
        self.record(name, node_id, info)

    def detach(self) -> None:
        """Stop capturing; what is logged stays readable."""
        self.cluster.hooks.untap(self._tap)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(TraceEvent._make, self._events)

    def events(self) -> List[TraceEvent]:
        return list(self)

    def select(self, event: str, node: Optional[int] = None
               ) -> List[TraceEvent]:
        return [ev for ev in self
                if ev.event == event
                and (node is None or ev.node == node)]

    def between(self, start_us: float, end_us: float) -> List[TraceEvent]:
        return [ev for ev in self
                if start_us <= ev.time_us <= end_us]

    def first(self, event: str) -> Optional[TraceEvent]:
        for ev in self:
            if ev.event == event:
                return ev
        return None

    def assert_ordering(self, earlier: str, later: str) -> None:
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
        for ev in self:
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
        lines = [str(ev) for ev in self.events()[-limit:]]
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
            for ev in self:
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
