"""Shared resources for simulated processes.

Two primitives cover every need in the library:

* :class:`Mutex` -- FIFO mutual exclusion (intra-node protocol locks,
  serialized releases, the memory bus a node's DMA transfers occupy).
* :class:`Store` -- an unbounded-or-bounded FIFO of items (NIC post
  queues, message delivery queues).

Waiting reads naturally inside process generators: ``yield
mutex.acquire()`` and ``yield store.put(item)`` wait on an
:class:`~repro.sim.process.Event`, and ``yield store.get()`` parks the
process on the store itself.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim._core import Event
from repro.sim.engine import Engine
from repro.sim.process import PARKED

#: Shared, permanently-settled grant event. Every uncontended
#: ``Mutex.acquire`` and every accepted ``Store.put`` settles with
#: ``succeed(None)`` before the caller can observe it, so they can all
#: hand back one immortal pre-settled event
#: instead of allocating a fresh one -- tens of thousands of Event
#: objects per application run. A process yielding it takes the settled
#: fast path (same event-list slot as a fresh settled event, so event
#: order is bit-identical); it is never parked on, so diagnostics that
#: decode *pending* events never see it.
_GRANTED = Event(None, "granted")
_GRANTED.succeed(None)

#: Sentinel returned by :meth:`Store.get_nowait` on an empty store
#: (``None`` is a legitimate stored item).
EMPTY = object()


class Mutex:
    """FIFO mutual exclusion lock for simulated processes.

    ``yield mutex.acquire()`` suspends until the lock is granted;
    ``mutex.release()`` hands it to the next waiter (immediately, at the
    current simulated time).
    """

    def __init__(self, engine: Engine, name: str = "mutex") -> None:
        self.engine = engine
        self.name = name
        self._acquire_name = name + ".acquire"
        self._locked = False
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        if not self._locked:
            self._locked = True
            return _GRANTED
        ev = Event(self.engine, self._acquire_name)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unlocked mutex {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self._locked = False


class Store:
    """FIFO store of items with optional bounded capacity.

    ``put`` returns an event that succeeds once the item is accepted
    (immediately if there is room, otherwise when space frees up --
    this is the NIC post-queue back-pressure the paper describes).
    ``yield store.get()`` takes the oldest item, waiting for one.
    """

    def __init__(self, engine: Engine, capacity: Optional[int] = None,
                 name: str = "store") -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1: {capacity}")
        self.engine = engine
        self.name = name
        self._put_name = name + ".put"
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        #: Processes parked in ``yield store.get()``, oldest first.
        self._getters: Deque[Any] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft()._hand(item)
            return _GRANTED
        if not self.is_full:
            self._items.append(item)
            return _GRANTED
        ev = Event(self.engine, self._put_name)
        self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self._getters:
            self._getters.popleft()._hand(item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def get(self) -> "Store":
        """``item = yield store.get()``: the oldest item.

        The store itself is what a process yields: the kernel calls
        :meth:`_park`, which takes the oldest item, or queues the
        process in ``_getters`` until ``put`` / ``try_put`` hands it
        one. A getter killed while parked keeps its turn, and the item
        handed to it is lost.
        """
        return self

    def _park(self, process: Any) -> Any:
        item = self.get_nowait()
        if item is EMPTY:
            self._getters.append(process)
            return PARKED
        return item

    def get_nowait(self) -> Any:
        """Pop the oldest item, or :data:`EMPTY` when none is queued.

        Also wakes one blocked putter, as any get that takes an item
        does.
        """
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return item
        return EMPTY

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            put_ev, item = self._putters.popleft()
            self._items.append(item)
            put_ev.succeed(None)

    def drain(self) -> list[Any]:
        """Remove and return all queued items (used at node failure).

        Blocked putters are admitted while there is room; the rest are
        dropped -- the store's consumer is gone, so nothing would ever
        make room for them."""
        items = list(self._items)
        self._items.clear()
        while self._putters and not self.is_full:
            self._admit_putter()
        self._putters.clear()
        return items
