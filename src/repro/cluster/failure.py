"""Fail-stop failure injection.

Two injection styles:

* **time-based** -- kill node N at simulated time t;
* **hook-based** -- kill node N the k-th time it fires a given protocol
  hook (e.g. "during the first phase of diff propagation of its 3rd
  release"), which is how the recovery-path tests reach every case of
  paper section 4.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.machine import Cluster
from repro.sim import PRIORITY_URGENT


@dataclass
class InjectionRecord:
    node_id: int
    fired_at: Optional[float] = None
    description: str = ""


class FailureInjector:
    """Schedules fail-stop deaths against a cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.records: List[InjectionRecord] = []

    def kill_at_time(self, node_id: int, time: float) -> InjectionRecord:
        record = InjectionRecord(node_id,
                                 description=f"time-based at {time}")
        self.records.append(record)

        def fire() -> None:
            if self.cluster.node(node_id).alive:
                record.fired_at = self.cluster.now
                self.cluster.fail_node(node_id)

        engine = self.cluster.engine
        engine.schedule(time - engine.now, fire, priority=PRIORITY_URGENT)
        return record

    def kill_on_hook(self, node_id: int, hook_name: str,
                     occurrence: int = 1,
                     delay: float = 0.0,
                     any_node: bool = False) -> InjectionRecord:
        """Kill ``node_id`` when it fires ``hook_name`` for the
        ``occurrence``-th time, optionally ``delay`` us later (to land
        *inside* the phase the hook opens rather than at its boundary).

        ``any_node`` counts the hook's firings regardless of which node
        fired it -- needed for hooks that fire *about* a node rather
        than *at* one (e.g. killing during recovery by counting
        RECOVERY_START events, whose node_id is the victim under
        recovery, not the node to kill).
        """
        record = InjectionRecord(
            node_id,
            description=(f"on {hook_name}#{occurrence} (+{delay}us)"
                         + (" any-node" if any_node else "")))
        self.records.append(record)
        seen = {"count": 0}

        def on_hook(fired_node: int, **info) -> None:
            if (not any_node and fired_node != node_id) \
                    or record.fired_at is not None:
                return
            seen["count"] += 1
            if seen["count"] != occurrence:
                return
            self.cluster.hooks.off(hook_name, on_hook)

            def fire() -> None:
                if self.cluster.node(node_id).alive:
                    record.fired_at = self.cluster.now
                    self.cluster.fail_node(node_id)

            self.cluster.engine.schedule(delay, fire,
                                         priority=PRIORITY_URGENT)

        self.cluster.hooks.on(hook_name, on_hook)
        return record
