"""One SMP node: processors, memory bus, NIC, exported memory.

The paper's platform is a 2-way Pentium-II SMP. We model the node as:

* ``threads_per_node`` compute contexts (the scheduler is the DES
  itself -- each compute thread is a simulated process);
* one shared **memory bus** with finite bandwidth. Processor-side page
  copies (twin creation, local fetches, checkpoint serialization) and
  NIC DMA all occupy it, producing the compute-time dilation under
  heavy replication traffic the paper reports;
* one NIC attached to the cluster fabric, exporting this node's page
  stores and protocol regions.
"""

from __future__ import annotations

import random
from typing import List

from repro.config import ClusterConfig, copy_time_us
from repro.errors import SimulationError
from repro.net import NIC, RegionTable, VMMC
from repro.sim import Engine, Mutex, Process


class Node:
    """A simulated SMP node."""

    def __init__(self, engine: Engine, node_id: int,
                 config: ClusterConfig) -> None:
        self.engine = engine
        self.node_id = node_id
        self.config = config
        self.alive = True
        self.rng = random.Random(config.seed * 1_000_003 + node_id)

        self.regions = RegionTable(node_id)
        self.bus = Mutex(engine, name=f"node{node_id}.bus")
        self.nic = NIC(engine, node_id, config.network,
                       regions=self.regions, dma_bus=self.bus)
        self.vmmc = VMMC(engine, self.nic)

        #: Every simulated process running on this node (compute threads,
        #: protocol daemons); killed wholesale at fail-stop.
        self._processes: List[Process] = []

    # -- process management --------------------------------------------------

    def spawn(self, generator, name: str) -> Process:
        """Start a process that dies with this node."""
        if not self.alive:
            raise SimulationError(
                f"cannot spawn {name!r} on dead node {self.node_id}")
        proc = self.engine.spawn(generator, f"n{self.node_id}.{name}")
        self._processes.append(proc)
        return proc

    # -- memory-system costs --------------------------------------------------

    def mem_copy(self, nbytes: int):
        """Generator charging the time of a local memory copy.

        Holds the bus for the transfer, at the slower of copy bandwidth
        vs bus share.
        """
        duration = copy_time_us(nbytes)
        yield self.bus.acquire()
        try:
            yield duration
        finally:
            self.bus.release()

    # -- failure ----------------------------------------------------------------

    def fail(self) -> None:
        """Fail-stop this node: all processes die, the NIC goes silent.

        Local memory contents are *lost* to the rest of the system (the
        stores remain as Python objects, but nothing can reach them
        through the fabric -- matching "volatile memories").
        """
        if not self.alive:
            return
        self.alive = False
        for proc in self._processes:
            proc.kill()
        self._processes.clear()
        self.nic.fail()
