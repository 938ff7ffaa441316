"""Discrete-event simulation engine.

The engine is a classic event-list simulator: a priority queue of
``(time, priority, sequence, action)`` entries processed in order.
Simulated entities are :class:`~repro.sim.process.Process` objects built
from Python generators; the engine only knows about scheduled callbacks,
which keeps this module tiny and easy to reason about.

Determinism: ties in time are broken first by an explicit priority and
then by insertion order (a monotone sequence number), so two runs with
the same seed produce identical event orderings.

This module is the pure-Python reference implementation of the hot
core. When the optional compiled extension is built, the public names
are re-exported through :mod:`repro.sim._core`, which transparently
swaps in the accelerated versions (same semantics, bit-identical event
order); ``REPRO_PURE=1`` forces this reference path.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

_heappush = heapq.heappush

#: Default priority for scheduled events. Lower runs first at equal times.
PRIORITY_NORMAL = 10
#: Priority used by failure injection so that a node death at time t is
#: observed by every other event scheduled at t.
PRIORITY_URGENT = 0
#: Priority of the stop entry a capped ``run`` schedules at its cap:
#: above any priority a caller passes, so every entry at the cap runs
#: first.
PRIORITY_STOP = 2**31 - 1

# Scheduler entries are plain lists ``[time, priority, seq, action]``.
# Lists heap-compare elementwise at C speed and ``seq`` is unique, so a
# comparison never reaches the action. Cancellation clears slot 3 in
# place (``entry[3] = None``) -- no per-event handle object exists at
# all, which removes one allocation + two attribute writes from every
# schedule and a ``.cancelled`` attribute load from every dispatch.

#: Index of the action slot in a scheduler entry (``None`` = cancelled).
ENTRY_ACTION = 3


class _StopRun(Exception):
    """Raised by the stop entry's action to end a capped ``run``."""


def _stop_run() -> None:
    raise _StopRun


class _Horizon:
    """The pending deadlines of one length; only the head is on the heap.

    A deadline (the timer of ``repro.sim.timeout_wait``) is a five-slot
    entry ``[time, priority, seq, action, horizon]``. ``now`` never goes
    backwards, so deadlines of one length arrive in (time, seq) order
    and only the oldest needs to be on the heap. Most are cancelled long
    before they are due, and a cancelled one is dropped from the queue
    without ever entering the heap.
    """

    __slots__ = ("_heap", "_queue", "_armed")

    def __init__(self, heap: list) -> None:
        self._heap = heap
        self._queue: deque = deque()
        #: True while this horizon's head is on the heap.
        self._armed = False

    def add(self, entry: List[Any]) -> None:
        if self._armed:
            self._queue.append(entry)
        else:
            self._armed = True
            _heappush(self._heap, entry)

    def advance(self) -> None:
        """The head left the heap: put the next live deadline there.

        Every way a head leaves calls this once: its action when it
        fires (a spent deadline's action is this method itself), or the
        run loop when it was cancelled.
        """
        queue = self._queue
        while queue:
            entry = queue.popleft()
            if entry[3] is not None:
                _heappush(self._heap, entry)
                return
        self._armed = False

    def pending(self) -> int:
        return sum(1 for entry in self._queue if entry[3] is not None)


class Engine:
    """The simulation clock and event list.

    Typical use::

        engine = Engine()
        engine.spawn(my_generator())
        engine.run()
        print(engine.now)

    ``schedule`` returns the scheduler entry itself;
    clearing its action slot (``entry[ENTRY_ACTION] = None``) cancels it.
    """

    __slots__ = ("_heap", "_fifo", "_horizons", "_seq", "_now", "_running",
                 "events_executed")

    def __init__(self) -> None:
        #: Heap of [time, priority, seq, action] lists.
        self._heap: list = []
        #: Zero-delay PRIORITY_NORMAL entries, same layout. Their
        #: times are non-decreasing (``now`` never goes backwards) and
        #: their seqs strictly increase, so the deque is already sorted
        #: by (time, priority, seq): ``run`` merges it with the heap by
        #: comparing heads, which preserves the exact total order while
        #: replacing an O(log n) heap push/pop with O(1) deque ops for
        #: the most common schedule (event wakeups).
        self._fifo: deque = deque()
        #: Deadline length -> its :class:`_Horizon`.
        self._horizons: dict = {}
        # Bound ``__next__`` dodges the ``next()`` builtin call in
        # ``schedule`` -- the single hottest function in full runs.
        self._seq = itertools.count().__next__
        self._now = 0.0
        self._running = False
        #: Number of events executed so far (for diagnostics / tests).
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time (microseconds by library convention)."""
        return self._now

    def schedule(self, delay: float, action: Callable[[], None], *,
                 priority: int = PRIORITY_NORMAL) -> List[Any]:
        """Schedule ``action()`` to run ``delay`` time units from now.

        Returns the scheduler entry (see the class docstring).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        entry = [self._now + delay, priority, self._seq(), action]
        if delay == 0.0 and priority == PRIORITY_NORMAL:
            self._fifo.append(entry)
        else:
            _heappush(self._heap, entry)
        return entry

    def _schedule_now(self, action: Callable[[], None]) -> List[Any]:
        """``schedule(0.0, action)`` without the generic checks.

        The zero-delay PRIORITY_NORMAL resume is the single most common
        schedule (every event wakeup); this entry point skips the
        negative-delay guard and the dispatch branch. The event-list
        slot is identical to what ``schedule`` would produce.
        """
        entry = [self._now, PRIORITY_NORMAL, self._seq(), action]
        self._fifo.append(entry)
        return entry

    def _deadline(self, timeout: float, action: Callable[[], None]
                  ) -> List[Any]:
        """Schedule a deadline ``timeout`` from now on its horizon.

        Takes the seq ``schedule(timeout, action)`` would, and runs in
        the same place of the total order. ``action`` must advance the
        horizon (``entry[4].advance()``) when it runs.
        """
        horizon = self._horizons.get(timeout)
        if horizon is None:
            horizon = self._horizons[timeout] = _Horizon(self._heap)
        entry = [self._now + timeout, PRIORITY_NORMAL, self._seq(), action,
                 horizon]
        horizon.add(entry)
        return entry

    def spawn(self, generator: Any, name: str = "process") -> "Process":
        """Create and start a :class:`Process` running ``generator``."""
        # Imported here to avoid a circular import at module load.
        from repro.sim.process import Process
        return Process(self, generator, name=name)

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the list drains or ``until`` passes.

        ``until`` is inclusive: events scheduled exactly at ``until``
        run, and a capped run ends with ``now == until``. The cap is one
        stop entry at ``until`` that sorts after every real priority;
        its action ends the loop, and any exit cancels it.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        stop = None
        if until is not None:
            if until < self._now:
                raise SimulationError(f"run(until={until!r}) is before now")
            stop = [until, PRIORITY_STOP, self._seq(), _stop_run]
            _heappush(self._heap, stop)
        self._running = True
        # Hot loop: localize the queues and heappop to dodge repeated
        # attribute/global lookups (measurable at millions of events).
        heap = self._heap
        fifo = self._fifo
        heappop = heapq.heappop
        popleft = fifo.popleft
        try:
            while True:
                # Two sorted sources: take whichever head has the
                # smaller (time, priority, seq) -- seq is unique, so the
                # compare never reaches the actions.
                if fifo:
                    if heap and heap[0] < fifo[0]:
                        entry = heappop(heap)
                    else:
                        entry = popleft()
                elif heap:
                    entry = heappop(heap)
                else:
                    break
                action = entry[3]
                if action is None:
                    if len(entry) == 5:  # a cancelled deadline head
                        entry[4].advance()
                    continue
                time = entry[0]
                if time < self._now:
                    raise SimulationError("event list went backwards in time")
                self._now = time
                action()
                self.events_executed += 1
        except _StopRun:
            pass
        finally:
            self._running = False
            if stop is not None:
                stop[3] = None

    @property
    def queue_depth(self) -> int:
        """Number of pending entries in the event list (an observability
        gauge): each live deadline once, wherever it waits, but neither
        cancelled entries, which ``run`` discards lazily, nor a capped
        run's stop entry."""
        return sum(1 for entry in self._heap
                   if entry[3] is not None and entry[3] is not _stop_run) \
            + sum(1 for entry in self._fifo if entry[3] is not None) \
            + sum(horizon.pending() for horizon in self._horizons.values())
