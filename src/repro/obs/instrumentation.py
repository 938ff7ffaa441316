"""Invocation counters proving observability is zero-cost when off.

Every event the recorder or the watchdog is handed, every sample the
sampler takes and every tracer call bumps a counter here. A run with
observability disabled must leave all counters at zero -- that is the
testable statement of "the flight recorder costs nothing unless
attached" (see ``tests/obs/test_overhead.py``), and ``benchmarks/e2e``
reports the same total for its unobserved cells as
``obs.calls_when_off``.
"""

from __future__ import annotations

from typing import Dict

#: obs-code invocations since the last :func:`reset`, by component.
CALLS: Dict[str, int] = {"recorder": 0, "sampler": 0, "watchdog": 0,
                         "optrace": 0}


def bump(component: str) -> None:
    CALLS[component] += 1


def reset() -> None:
    for key in CALLS:
        CALLS[key] = 0


def snapshot() -> Dict[str, int]:
    return dict(CALLS)


def total() -> int:
    return sum(CALLS.values())
