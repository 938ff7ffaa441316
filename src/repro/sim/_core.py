"""Implementation selector for the simulation hot core.

The pure-Python modules (:mod:`repro.sim.engine`,
:mod:`repro.sim.process`) are the *reference* implementation -- the
oracle every behavioural question defers to.  When the optional
compiled extension :mod:`repro.sim._ccore` has been built (``python
setup.py build_ext --inplace``), this module transparently swaps in the
accelerated ``Engine``/``Event``/``Process``.  The two builds
are bit-identical at the level of simulated behaviour: same event
total order, same timestamps, same callback order, same exception
types -- pinned by golden trace digests and same-seed fault sweeps run
under both (see ``tests/sim/test_accel_identity.py``).

Set ``REPRO_PURE=1`` to force the pure reference path even when the
extension is importable.

The one helper written once over whichever kernel is selected lives
here: :func:`timeout_wait` (it *creates* events, so it must build them
of the selected implementation).
"""

from __future__ import annotations

import os

__all__ = [
    "ACCELERATED",
    "Engine",
    "Event",
    "Process",
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
    Engine = _ccore.Engine
    Event = _ccore.Event
    Process = _ccore.Process
else:
    from repro.sim.engine import Engine
    from repro.sim.process import Event, Process


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
