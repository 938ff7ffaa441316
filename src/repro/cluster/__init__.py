"""Cluster hardware model: SMP nodes, fabric, protocol hook bus.

Public surface::

    from repro.cluster import Cluster, Node, Hooks

Failures are injected through :class:`repro.harness.faultplan.FaultPlan`.
"""

from repro.cluster.hooks import Hooks
from repro.cluster.machine import Cluster
from repro.cluster.node import Node

__all__ = [
    "Cluster",
    "Node",
    "Hooks",
]
