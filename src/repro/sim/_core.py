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
here: :func:`timeout_wait`, which yields ``(event, timeout)`` to the
kernel and reads back the event's value or ``TIMED_OUT``.
"""

from __future__ import annotations

import os

from repro.errors import SimulationError
from repro.sim.process import TIMED_OUT

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


def timeout_wait(event: Event, timeout: float):
    """Wait on ``event`` for at most ``timeout`` time.

    A generator helper (use with ``yield from``). Returns ``(True,
    value)`` if the event succeeded in time, ``(False, None)`` on
    timeout. Event *failures* are re-raised.

    The kernel does the waiting, on the waiting process's own engine:
    it takes the deadline's seq as ``engine.schedule(timeout, ...)``
    would, queues the deadline with every other deadline of that
    length, and parks the process on ``event`` itself. The
    deadline is cancelled when the process resumes; a failed wait
    leaves it to fire later as a no-op event.
    """
    if event._settled:
        # What a wait would deliver, minus a deadline that would be
        # cancelled before firing.
        if event._ok:
            return True, event._value
        raise event._value
    if timeout < 0:
        raise SimulationError(
            f"cannot schedule in the past (delay={timeout})")
    value = yield (event, timeout)
    if value is TIMED_OUT:
        return False, None
    return True, value
