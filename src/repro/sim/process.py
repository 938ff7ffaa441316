"""Generator-based simulated processes.

A process is a Python generator driven by the :class:`~repro.sim.engine.
Engine`. The generator *yields* one of:

* a number (``float`` or ``int``) -- suspend for that many
  microseconds of simulated time (a negative number raises
  :class:`~repro.errors.SimulationError`);
* an :class:`Event` -- suspend until the event triggers; the event's
  value is sent back into the generator (or its exception thrown);
* an object with a ``_park(process)`` method, such as the
  :class:`~repro.sim.resources.Store` that ``store.get()`` returns --
  its return value is sent back at once, unless it is :data:`PARKED`:
  then the process waits until the object calls its ``_hand(value)``;
* ``(event, timeout)`` -- :func:`~repro.sim.timeout_wait`'s timed wait:
  the event's value, or :data:`TIMED_OUT` once ``timeout`` passes.

Sub-operations compose with ``yield from``, so protocol code reads like
ordinary sequential code::

    def release(self):
        yield from self.compute_diffs()
        yield cost
        yield from self.nic.remote_deposit(...)

A process can be *killed* (used by fail-stop failure injection;
``finally`` blocks still run, but the process never resumes).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from heapq import heappush as _heappush

from repro.errors import SimulationError
from repro.sim.engine import Engine, PRIORITY_NORMAL


#: Sent into a process whose timed wait reached its deadline first.
TIMED_OUT = object()
#: Returned by a yielded object's ``_park`` that queued the process.
PARKED = object()


class ProcessKilled(BaseException):
    """Thrown into a generator when its process is killed.

    Derives from ``BaseException`` so that ``except Exception`` handlers
    in protocol code cannot accidentally swallow a node death.
    """


class Event:
    """A one-shot occurrence processes can wait on.

    An event either *succeeds* with a value or *fails* with an exception;
    both wake every waiter (failures are re-raised inside the waiting
    process). Late waiters on an already-settled event are woken
    immediately.
    """

    __slots__ = ("engine", "name", "_callbacks", "_settled", "_ok", "_value")

    def __init__(self, engine: Engine, name: str = "event") -> None:
        self.engine = engine
        self.name = name
        # Lazily allocated: most events (uncontended mutexes, immediate
        # grants) settle with at most one waiter, and many with none.
        self._callbacks: Optional[list] = None
        self._settled = False
        self._ok = False
        self._value: Any = None

    @property
    def settled(self) -> bool:
        return self._settled

    def succeed(self, value: Any = None) -> "Event":
        # _settle inlined: success is the per-event hot case (hundreds
        # of thousands of grants per run), failure stays on _settle.
        if self._settled:
            raise SimulationError(f"event {self.name!r} settled twice")
        self._settled = True
        self._ok = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        self._settle(False, exc)
        return self

    def _settle(self, ok: bool, value: Any) -> None:
        if self._settled:
            raise SimulationError(f"event {self.name!r} settled twice")
        self._settled = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb(event)``; called immediately if already settled."""
        if self._settled:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)


class Process:
    """Drives a generator through the engine.

    The process starts automatically at the current simulated time. Its
    completion is observable through :attr:`done`, an :class:`Event` that
    succeeds with the generator's return value.
    """

    def __init__(self, engine: Engine, generator: Generator,
                 name: str = "process") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__} "
                f"(did you forget to call the generator function?)")
        self.engine = engine
        self.name = name
        self._gen = generator
        self.done = Event(engine, f"{name}.done")
        self._alive = True
        self._pending_resume = None  # cancellable scheduler entry (list)
        #: The event or store this process is parked on (diagnostics).
        self._waiting_on: Any = None
        #: The deadline entry of the timed wait in progress.
        self._deadline: Optional[list] = None
        # Reusable resume thunks: at most one resume is pending at a
        # time, so shared callables are safe and save a closure (and a
        # bound-method allocation) per suspension. Event wakeups stash
        # the settled value in ``_wake_value`` instead of closing over
        # it; ``_event_cb`` is the one persistent settle callback.
        self._wake_value: Any = None
        self._wake_throw = False
        self._resume: Callable[[], None] = self._do_resume
        self._event_cb: Callable[[Event], None] = self._on_event_settled
        self._deadline_cb: Callable[[], None] = self._on_deadline
        # Start at the current time, after already-queued events at `now`.
        self._pending_resume = engine._schedule_now(self._resume)

    @property
    def alive(self) -> bool:
        return self._alive

    # -- internal stepping ------------------------------------------------

    def _do_resume(self) -> None:
        """Entry point of every scheduled resume: advance the generator
        until it suspends on pending work.

        The trampoline: a yield of an *already-settled successful*
        event (uncontended mutex/bus grants, stores with items ready,
        local-node deposits) feeds the value straight back into the
        generator instead of taking a schedule/dispatch round-trip
        through the event list. Simulated time is untouched -- only
        host-side event churn is removed (~28% of all scheduled events
        on the lock-handoff path). Settled *failures* keep the
        scheduled throw path: they are rare (recovery signals) and
        keeping their event-list slot keeps failure interleavings
        boring. The compiled core implements the identical policy, so
        pure and accelerated runs stay bit-identical.

        One shared thunk for every resume flavor (timer expiry, event
        success, event failure): the wake payload is stashed
        in ``_wake_value``/``_wake_throw`` by whoever schedules the
        resume, so each engine dispatch costs exactly one Python frame.
        """
        payload, self._wake_value = self._wake_value, None
        throwing = self._wake_throw
        if throwing:
            self._wake_throw = False
        if not self._alive:
            return
        deadline = self._deadline
        if deadline is not None:
            # Cancelled when the waiter resumes, not when the event
            # settles; a failed wait leaves it to fire as a no-op.
            self._deadline = None
            deadline[3] = deadline[4].advance if throwing else None
        self._pending_resume = None
        self._waiting_on = None
        gen = self._gen
        send = gen.send
        engine = self.engine
        resume = self._resume
        while True:
            try:
                if throwing:
                    throwing = False
                    yielded = gen.throw(payload)
                else:
                    yielded = send(payload)
            except BaseException as exc:
                self._terminate(exc)
                return
            if yielded.__class__ is not float:
                if isinstance(yielded, Event):
                    if yielded._settled:
                        if yielded._ok:
                            payload = yielded._value
                            continue
                        self._wake_value = yielded._value
                        self._wake_throw = True
                        self._pending_resume = engine._schedule_now(resume)
                        return
                    self._waiting_on = yielded
                    yielded.add_callback(self._event_cb)
                    return
                if yielded.__class__ is tuple:
                    # timeout_wait: the deadline takes its seq before
                    # the process registers on the (unsettled) event.
                    event, timeout = yielded
                    self._deadline = engine._deadline(timeout,
                                                      self._deadline_cb)
                    self._waiting_on = event
                    event.add_callback(self._event_cb)
                    return
                if not isinstance(yielded, (int, float)):
                    park = getattr(yielded, "_park", None)
                    if park is None:
                        raise SimulationError(
                            f"{self.name} yielded unsupported object "
                            f"{yielded!r}")
                    payload = park(self)
                    if payload is not PARKED:
                        continue
                    self._waiting_on = yielded
                    return
                yielded = float(yielded)
            # A timed wait: engine.schedule inlined, one scheduler
            # entry built in place, straight onto the right queue.
            if yielded < 0.0:
                raise SimulationError(
                    f"cannot schedule in the past (delay={yielded})")
            entry = [engine._now + yielded, PRIORITY_NORMAL,
                     engine._seq(), resume]
            if yielded == 0.0:
                engine._fifo.append(entry)
            else:
                _heappush(engine._heap, entry)
            self._pending_resume = entry
            return

    def _terminate(self, exc: BaseException) -> None:
        """Handle the generator ending (StopIteration), dying with the
        node (ProcessKilled), or raising a bug (re-raised so it surfaces
        through engine.run())."""
        self._alive = False
        if isinstance(exc, StopIteration):
            self.done.succeed(exc.value)
        elif isinstance(exc, ProcessKilled):
            if not self.done.settled:
                self.done.fail(ProcessKilled(f"{self.name} killed"))
        else:
            raise exc

    def _on_event_settled(self, ev: Event) -> None:
        if not self._alive or self._waiting_on is not ev:
            return
        # Resume via the event list so wakeups at equal times keep
        # deterministic FIFO order.
        self._wake_value = ev._value
        if not ev._ok:
            self._wake_throw = True
        self._pending_resume = self.engine._schedule_now(self._resume)

    def _on_deadline(self) -> None:
        deadline = self._deadline
        deadline[4].advance()
        if self._pending_resume is not None:
            return  # the event settled first; the resume is queued
        self._waiting_on._callbacks.remove(self._event_cb)
        self._wake_value = TIMED_OUT
        self._pending_resume = self.engine._schedule_now(self._resume)

    def _hand(self, value: Any) -> None:
        """Wake this process, parked by a ``_park``, with ``value``."""
        if self._alive:
            self._wake_value = value
            self._pending_resume = self.engine._schedule_now(self._resume)

    # -- external control -------------------------------------------------

    def _detach(self) -> None:
        if self._pending_resume is not None:
            self._pending_resume[3] = None  # cancel the scheduler entry
            self._pending_resume = None
        deadline = self._deadline
        if deadline is not None:
            # Still fires later, as a counted no-op.
            self._deadline = None
            deadline[3] = deadline[4].advance
        # The settle callback stays on the event (and the process in a
        # store's getters): it and ``_hand`` check ``_alive``.
        self._waiting_on = None

    def kill(self) -> None:
        """Fail-stop the process immediately (``finally`` blocks run)."""
        if not self._alive:
            return
        self._detach()
        self._alive = False
        try:
            self._gen.throw(ProcessKilled(f"{self.name} killed"))
        except (ProcessKilled, StopIteration):
            pass
        except BaseException:
            # A generator that turns a kill into another exception is a
            # bug, but must not let the node death crash the simulation.
            pass
        if not self.done.settled:
            self.done.fail(ProcessKilled(f"{self.name} killed"))
