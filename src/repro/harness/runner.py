"""The SVM runtime: wires cluster, protocol agents, and app threads.

Usage::

    runtime = SvmRuntime(config, workload)
    result = runtime.run()
    print(result.breakdown.six_component())

The runtime owns thread placement (round-robin over nodes by default,
matching SPMD launches), the init/timed-region split (application
initialization runs before metrics start, as SPLASH-2 measurements do),
result collection, and -- for the fault-tolerant protocol -- the
recovery orchestration glue (respawning migrated threads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.base import INIT_BARRIER, AppContext, Workload
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import ProtocolError
from repro.memory import Segment
from repro.metrics import (
    Breakdown,
    MetricsRegistry,
    NodeCounters,
    RunCounters,
    ThreadClock,
)
from repro.protocol.barrier import BarrierManager
from repro.protocol.homes import HomeMap
from repro.protocol.api import SvmThread


@dataclass
class ThreadRecord:
    """Book-keeping for one application thread."""

    tid: int
    home_node: int
    current_node: int
    svm: SvmThread
    clock: ThreadClock
    ctx: AppContext
    proc: object = None
    finished: bool = False
    #: Number of times this thread has been resumed after a failure.
    resumptions: int = 0


@dataclass
class RunResult:
    """Everything a benchmark needs from one run."""

    elapsed_us: float
    breakdown: Breakdown
    counters: RunCounters
    per_node_counters: List[NodeCounters]
    #: One breakdown per thread, by tid (the report's per-thread chart).
    thread_breakdowns: List[Breakdown] = field(repr=False,
                                               default_factory=list)
    recoveries: int = 0
    #: The run's latency book: one histogram per operation class
    #: (``repro.metrics.latency.OP_CLASSES``), each operation that
    #: began inside the timed region timed once.
    latency: MetricsRegistry = field(repr=False,
                                     default_factory=MetricsRegistry)
    #: Longest single-failure exposure window (us): failure detection to
    #: the moment every affected page/lock/checkpoint ward is replicated
    #: on two live nodes again. 0.0 when no failures occurred.
    exposed_window_us: float = 0.0


class SvmRuntime:
    """One complete simulated execution of a workload."""

    def __init__(self, config: ClusterConfig,
                 workload: Workload) -> None:
        self.config = config
        self.workload = workload
        self.cluster = Cluster(config)
        self.engine = self.cluster.engine
        #: The latency book every operation is timed into.
        self.latency = MetricsRegistry()
        self.homes = HomeMap(config.num_nodes,
                             self.cluster.address_space.home_hint,
                             config.num_locks)
        self.recovery_manager = None
        agent_cls = self._agent_class()
        self.agents = [agent_cls(self.cluster, node_id, self.homes, self)
                       for node_id in range(config.num_nodes)]
        # Every node can become the barrier manager if lower-numbered
        # nodes fail, so each registers the service; only the current
        # manager (lowest live node) receives arrivals.
        self.barrier_managers = [BarrierManager(agent, self)
                                 for agent in self.agents]
        self.threads: List[ThreadRecord] = []
        #: Whether the timed region has begun: set by the first thread
        #: past the init phase, when the counters are reset.
        self.timing_started = False
        self._timing_start_us = 0.0
        if config.protocol.is_ft:
            from repro.protocol.ft.recovery import RecoveryManager
            self.recovery_manager = RecoveryManager(self)

    def _agent_class(self):
        if self.config.protocol.is_ft:
            from repro.protocol.ft.protocol import FtSvmNodeAgent
            return FtSvmNodeAgent
        from repro.protocol.agent import SvmNodeAgent
        return SvmNodeAgent

    # ------------------------------------------------------------------
    # Interfaces used by protocol agents
    # ------------------------------------------------------------------

    def alloc(self, name: str, nbytes: int, home="block") -> Segment:
        return self.cluster.address_space.alloc(name, nbytes, home=home)

    def barrier_manager_node(self) -> int:
        return self.homes.barrier_manager()

    def expected_barrier_nodes(self) -> int:
        """Live nodes currently hosting at least one unfinished thread."""
        return len(self.expected_barrier_node_ids())

    def expected_barrier_node_ids(self) -> set:
        # Membership is defined by *detected* failures (the excluded
        # set of the home map), never by ground-truth liveness: a node
        # that died undetected must still be counted, so that the
        # barrier stalls and the manager's watchdog probes it.
        return {rec.current_node for rec in self.threads
                if not rec.finished
                and rec.current_node not in self.homes.failed}

    def threads_on_node(self, node_id: int) -> int:
        return sum(1 for rec in self.threads
                   if rec.current_node == node_id and not rec.finished)

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------

    def _placement(self) -> List[int]:
        """tid -> node. SPMD round-robin: thread t runs on node
        t % num_nodes, giving each node threads_per_node threads."""
        total = self.config.total_threads
        return [tid % self.config.num_nodes for tid in range(total)]

    def _create_threads(self) -> None:
        placement = self._placement()
        total = len(placement)
        for tid, node_id in enumerate(placement):
            clock = ThreadClock(self.engine)
            svm = SvmThread(self.agents[node_id], tid, clock)
            ctx = AppContext(svm, tid, total)
            self.threads.append(ThreadRecord(
                tid=tid, home_node=node_id, current_node=node_id,
                svm=svm, clock=clock, ctx=ctx))

    def _thread_main(self, rec: ThreadRecord):
        """Top-level generator for one thread: init, timed region, done."""
        ctx = rec.ctx
        if ctx.pending("__init_phase__"):
            init = self.workload.init_kernel(ctx)
            if init is not None:
                yield from init
            yield from ctx.runtime_barrier(INIT_BARRIER)
            ctx.done("__init_phase__")
            if self.config.protocol.is_ft:
                # Seed checkpoint: a failure before the first release
                # can still recover into the start of the timed region.
                yield from rec.svm.agent.initial_checkpoint(rec)
            self._note_timing_start(rec)
        if ctx.pending("__main_phase__"):
            yield from self.workload.kernel(ctx)
            ctx.done("__main_phase__")
        rec.finished = True
        rec.clock.stop()
        if self.recovery_manager is not None:
            self.recovery_manager.note_finished()
        return None

    def _note_timing_start(self, rec: ThreadRecord) -> None:
        rec.clock.reset()
        if not self.timing_started:
            self.timing_started = True
            self._timing_start_us = self.engine.now
            for agent in self.agents:
                agent.counters = NodeCounters()
            for node in self.cluster.nodes:
                node.nic.messages_sent = 0
                node.nic.messages_received = 0
                node.nic.bytes_sent = 0
                node.nic.post_queue_stalls = 0

    def spawn_thread(self, rec: ThreadRecord) -> None:
        node = self.cluster.node(rec.current_node)
        rec.proc = node.spawn(self._thread_main(rec),
                              f"app.t{rec.tid}")

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Set the workload up and spawn its threads; nothing has run
        until the engine does (``run`` to the end, a probe to a
        chosen instant)."""
        self.workload.setup(self)
        self._create_threads()
        for rec in self.threads:
            self.spawn_thread(rec)

    def run(self, verify: bool = True,
            max_sim_us: Optional[float] = None) -> RunResult:
        self.start()
        self.engine.run(until=max_sim_us)
        self._detect_silent_failures(max_sim_us)
        unfinished = [rec.tid for rec in self.threads if not rec.finished]
        if unfinished:
            raise ProtocolError(
                f"threads never finished: {unfinished} "
                f"(simulated time {self.engine.now:.0f}us)")
        if verify:
            self.workload.verify(self)
        return self._collect()

    def _detect_silent_failures(self, max_sim_us) -> None:
        """Eventual failure detection for nodes that die after all
        communication has ceased.

        The protocol's detection is reactive (communication errors,
        heart-beat probes while waiting); a node that fails when every
        survivor has already finished is never probed. Real clusters
        catch this with periodic liveness monitoring; we model that by
        reporting, once the event list drains, any dead-but-undetected
        node still hosting unfinished threads, and letting recovery run.
        """
        if self.recovery_manager is None:
            return
        for _ in range(self.config.num_nodes):
            unfinished = [rec for rec in self.threads if not rec.finished]
            if not unfinished:
                return
            undetected = sorted(
                rec.current_node for rec in unfinished
                if not self.cluster.node(rec.current_node).alive
                and rec.current_node not in self.homes.failed)
            if not undetected:
                return
            self.recovery_manager.report_failure(undetected[0])
            # ``max_sim_us`` bounds runaway event generation, not the
            # recovery itself: when the event list drained early the
            # engine fast-forwarded ``now`` to the cap, so reusing it
            # as the bound would leave recovery's events (scheduled
            # after ``now``) forever unrunnable. Give each detection
            # round its own budget instead.
            until = (None if max_sim_us is None
                     else self.engine.now + max_sim_us)
            self.engine.run(until=until)

    def _collect(self) -> RunResult:
        clocks = [rec.clock for rec in self.threads]
        per_node = [agent.counters for agent in self.agents]
        recoveries = (self.recovery_manager.recoveries
                      if self.recovery_manager else 0)
        exposed = (max(self.recovery_manager.exposed_windows, default=0.0)
                   if self.recovery_manager else 0.0)
        return RunResult(
            elapsed_us=self.engine.now - self._timing_start_us,
            breakdown=Breakdown.merge(clocks),
            counters=RunCounters.aggregate(per_node),
            per_node_counters=per_node,
            thread_breakdowns=[Breakdown.merge([clock]) for clock in clocks],
            recoveries=recoveries,
            latency=self.latency,
            exposed_window_us=exposed,
        )

    # ------------------------------------------------------------------
    # Debug / verification access (host level, no simulated cost)
    # ------------------------------------------------------------------

    def debug_read(self, addr: int, size: int) -> bytes:
        """Read the authoritative (home) copy of a shared range.

        Used by workload ``verify`` after the simulation: reads the
        fetch store (working copy for the base protocol, committed copy
        for the extended one) at each page's current primary home.
        """
        space = self.cluster.address_space
        out = bytearray()
        pos, remaining = addr, size
        while remaining > 0:
            page, offset = space.locate(pos)
            chunk = min(remaining, space.page_size - offset)
            home = self.homes.primary_home(page)
            store = self.agents[home]._fetch_store(page)
            out += store.read_span(page, offset, chunk)
            pos += chunk
            remaining -= chunk
        return bytes(out)

    def debug_read_array(self, addr: int, dtype, count: int):
        import numpy as np
        dtype = np.dtype(dtype)
        raw = self.debug_read(addr, dtype.itemsize * count)
        return np.frombuffer(raw, dtype=dtype).copy()
