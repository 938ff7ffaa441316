"""Cluster assembly: nodes + fabric + shared address space."""

from __future__ import annotations

import random
from typing import List

from repro.config import ClusterConfig
from repro.cluster.hooks import Hooks
from repro.cluster.node import Node
from repro.errors import SimulationError
from repro.memory import AddressSpace
from repro.net import Network
from repro.sim import Engine


class Cluster:
    """The simulated machine: N SMP nodes on one switch.

    This object owns the engine and all hardware-level state; the SVM
    protocol layers attach per-node agents on top of it.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.engine = Engine()
        self.rng = random.Random(config.seed)
        self.hooks = Hooks()
        self.network = Network(self.engine, config.network)
        self.address_space = AddressSpace(
            config.shared_pages, config.page_size, config.num_nodes)
        self.nodes: List[Node] = []
        #: Ground-truth death observers (``fn(node_id)``), invoked the
        #: moment a node fail-stops. The recovery coordinator registers
        #: here so a death *during* an active recovery is absorbed into
        #: the in-progress rendezvous instead of silently stalling the
        #: quiescence count.
        self.on_node_failed: List = []
        #: Causal operation tracer (repro.obs.optrace.OpTracer) or None.
        #: Protocol mint sites read this attribute; with no tracer the
        #: cost is one attribute load + None test per logical operation.
        self.optrace = None
        for node_id in range(config.num_nodes):
            node = Node(self.engine, node_id, config)
            self.network.attach(node.nic)
            self.nodes.append(node)

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise SimulationError(f"no node {node_id}")
        return self.nodes[node_id]

    def live_nodes(self) -> List[int]:
        return [n.node_id for n in self.nodes if n.alive]

    def fail_node(self, node_id: int) -> None:
        """Fail-stop a node immediately (at the current simulated time)."""
        self.node(node_id).fail()
        for callback in list(self.on_node_failed):
            callback(node_id)
