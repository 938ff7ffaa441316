"""Lightweight pub/sub hook bus for tracing and failure injection.

Protocol code fires named hooks at interesting points (release phases,
checkpoints, recovery stages). Reactors to one point -- fault plans,
the invariant checker, tests -- subscribe with
:meth:`Hooks.on`; observers of the whole stream -- the protocol trace,
the flight recorder, the stall watchdog -- with :meth:`Hooks.tap`.
Firing a hook with no subscribers is free, so the protocol can be
instrumented densely.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, DefaultDict, Iterable, List, Tuple

#: Subscriber signature: ``fn(node_id, **info)``.
HookFn = Callable[..., None]
#: Stream-observer signature: ``sink(name, node_id, info)``.
TapFn = Callable[[str, int, dict], None]
#: What :meth:`Hooks.tap` returns and :meth:`Hooks.untap` takes back.
Tap = List[Tuple[str, HookFn]]


class Hooks:
    """Named synchronous hook points."""

    # Hook names fired by the protocol layers. Centralizing them here
    # keeps fault-plan/test code typo-safe.
    RELEASE_START = "release_start"
    RELEASE_COMMITTED = "release_committed"        # updates committed (point A)
    DIFF_PHASE1_START = "diff_phase1_start"
    DIFF_PHASE1_DONE = "diff_phase1_done"          # timestamp saved (point B)
    DIFF_PHASE2_START = "diff_phase2_start"
    DIFF_PHASE2_DONE = "diff_phase2_done"
    RELEASE_DONE = "release_done"
    CHECKPOINT_A_START = "checkpoint_a_start"
    CHECKPOINT_A = "checkpoint_a"
    CHECKPOINT_B_START = "checkpoint_b_start"
    CHECKPOINT_B = "checkpoint_b"
    BARRIER_ENTER = "barrier_enter"
    BARRIER_EXIT = "barrier_exit"
    ACQUIRE_START = "acquire_start"
    LOCK_ACQUIRED = "lock_acquired"
    LOCK_RELEASED = "lock_released"
    PAGE_FAULT = "page_fault"
    PAGE_FAULT_DONE = "page_fault_done"
    FAILURE_DETECTED = "failure_detected"
    RECOVERY_START = "recovery_start"
    RECOVERY_DONE = "recovery_done"
    THREAD_RESUMED = "thread_resumed"
    # Fine-grained audit points (consumed by repro.verify and trace
    # replay; fired densely, free with no subscribers).
    DIFF_SEND = "diff_send"                        # one diff leaves a writer
    DIFF_APPLY = "diff_apply"                      # one diff lands at a home
    HOME_REMAP = "home_remap"                      # home map epoch change
    RECOVERY_RECONCILE = "recovery_reconcile"      # roll-forward/back chosen
    CHECKPOINT_STORED = "checkpoint_stored"        # backup stored a record
    REREPLICATE_START = "rereplicate_start"        # step-8 push begins
    REREPLICATE_DONE = "rereplicate_done"          # full protection restored

    def __init__(self) -> None:
        self._subs: DefaultDict[str, List[HookFn]] = defaultdict(list)

    def on(self, name: str, fn: HookFn) -> None:
        self._subs[name].append(fn)

    def off(self, name: str, fn: HookFn) -> None:
        if fn in self._subs.get(name, []):
            self._subs[name].remove(fn)

    def tap(self, names: Iterable[str], sink: TapFn) -> Tap:
        """Subscribe one observer of a whole event stream: ``sink(name,
        node_id, info)`` runs for every hook in ``names``. The only way
        recorders and watchdogs attach; reactors to single hooks (fault
        plans, the invariant checker) use :meth:`on`."""
        def forward(name: str) -> HookFn:
            def fn(node_id: int, **info: Any) -> None:
                sink(name, node_id, info)
            return fn

        tap = [(name, forward(name)) for name in names]
        for name, fn in tap:
            self.on(name, fn)
        return tap

    def untap(self, tap: Tap) -> None:
        """Unsubscribe what :meth:`tap` subscribed (idempotent)."""
        while tap:
            self.off(*tap.pop())

    def fire(self, name: str, node_id: int, **info: Any) -> None:
        subs = self._subs.get(name)
        if not subs:
            # The common case on hot paths: nobody listening. Exit
            # before the defensive copy so dense instrumentation stays
            # near-free with observability off.
            return
        for fn in list(subs):
            fn(node_id, **info)
