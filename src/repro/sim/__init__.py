"""Minimal deterministic discrete-event simulation kernel.

Public surface::

    from repro.sim import Engine, Process, Event, Mutex, Store

A process is a generator: it yields a number to wait that many
microseconds of simulated time, or an :class:`Event` to wait for it.

Two interchangeable implementations sit behind these names: the
pure-Python reference (:mod:`repro.sim.engine` /
:mod:`repro.sim.process`) and an optional compiled core
(:mod:`repro.sim._ccore`).  :mod:`repro.sim._core` selects between
them (``REPRO_PURE=1`` forces the reference path); both produce
bit-identical simulated behaviour.  :data:`ACCELERATED` reports which
one is live.
"""

from repro.sim._core import (
    ACCELERATED,
    Engine,
    Event,
    Process,
    timeout_wait,
)
from repro.sim.engine import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from repro.sim.process import ProcessKilled
from repro.sim.resources import Mutex, Store

__all__ = [
    "ACCELERATED",
    "Engine",
    "Process",
    "ProcessKilled",
    "Event",
    "timeout_wait",
    "Mutex",
    "Store",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]
