"""Implementation selector for the simulation hot core.

The pure-Python modules (:mod:`repro.sim.engine`,
:mod:`repro.sim.process`) are the *reference* implementation -- the
oracle every behavioural question defers to.  When the optional
compiled extension :mod:`repro.sim._ccore` has been built (``python
setup.py build_ext --inplace``), this module transparently swaps in the
accelerated ``Engine``/``Event``/``Process``/``Delay``.  The two builds
are bit-identical at the level of simulated behaviour: same event
total order, same timestamps, same callback order, same exception
types -- pinned by golden trace digests and same-seed fault sweeps run
under both (see ``tests/sim/test_accel_identity.py``).

Set ``REPRO_PURE=1`` to force the pure reference path even when the
extension is importable.

The helpers written once over whichever kernel is selected live here:
:func:`timeout_wait` (it *creates* events, so it must build them of the
selected implementation) and :func:`metronome` (a periodic tick made
of plain ``schedule`` calls, so neither kernel carries it).
"""

from __future__ import annotations

import os
from typing import Callable

from repro.errors import SimulationError
from repro.sim.engine import PRIORITY_LATE

__all__ = [
    "ACCELERATED",
    "Delay",
    "Engine",
    "Event",
    "Process",
    "metronome",
    "timeout_wait",
]

_ccore = None
if os.environ.get("REPRO_PURE", "") not in ("", "0"):
    ACCELERATED = False
else:  # pragma: no branch - trivial selection
    try:
        from repro.sim import _ccore  # type: ignore[attr-defined]
    except ImportError:
        _ccore = None
    ACCELERATED = _ccore is not None

if _ccore is not None:
    Delay = _ccore.Delay
    Engine = _ccore.Engine
    Event = _ccore.Event
    Process = _ccore.Process
else:
    from repro.sim.engine import Engine
    from repro.sim.process import Delay, Event, Process


def timeout_wait(engine: Engine, event: Event, timeout: float):
    """Wait on ``event`` for at most ``timeout`` time.

    A generator helper (use with ``yield from``). Returns ``(True,
    value)`` if the event succeeded in time, ``(False, None)`` on
    timeout. Event *failures* are re-raised.
    """
    # Hand-rolled two-way wait: one Event and two closures instead of
    # a timer Event plus a first-of-many aggregate (this sits on the
    # hot path of every synchronous remote operation).
    if event._settled:
        # Same outcome add_callback would deliver synchronously, minus
        # the timer entry (which would be cancelled before firing).
        if event._ok:
            return True, event._value
        raise event._value
    combined = Event(engine, "timeout_wait")

    def on_timer() -> None:
        if not combined._settled:
            combined.succeed((1, None))

    handle = engine.schedule(timeout, on_timer)

    def on_event(ev: Event) -> None:
        if combined._settled:
            return
        if ev.failed:
            combined.fail(ev.value)
        else:
            combined.succeed((0, ev.value))

    event.add_callback(on_event)
    index, value = yield combined
    if index == 0:
        handle[3] = None  # cancel the timer's scheduler entry
        return True, value
    return False, None


def metronome(engine: Engine, period: float,
              action: Callable[[], None]) -> None:
    """Run ``action()`` every ``period`` time units while the
    simulation is still live.

    The next tick is armed only while *active* (non-metronome) events
    remain pending (:meth:`Engine.has_active_pending`), so a metronome
    never keeps ``run()`` from draining the event list -- a plain
    self-rescheduling event would tick forever, and two metronomes
    gating only on "is the heap non-empty" would keep each other alive.
    Ticks run at ``PRIORITY_LATE`` so samplers observe the
    state *after* the normal events of their timestamp. Each tick's
    entry is marked passive with a fifth ``True`` element (list
    compares stop at the unique seq, so mixed lengths never matter).
    """
    if period <= 0:
        raise SimulationError(f"metronome period must be > 0: {period}")

    def tick() -> None:
        action()
        if engine.has_active_pending():
            engine.schedule(period, tick, PRIORITY_LATE).append(True)

    engine.schedule(period, tick, PRIORITY_LATE).append(True)
