"""Periodic time-series sampling of counters and queue depths.

:class:`TimeSeriesSampler` samples on a grid of *simulated* time: at
every ``period_us`` boundary it snapshots the cumulative
:class:`~repro.metrics.counters.NodeCounters` fields of every node,
the engine's pending-event count and each NIC's post-queue depth, into
columnar arrays (one list per series, one shared time axis).

Two views: :meth:`totals` (cluster-wide cumulative counters) and
:meth:`rates` (per-millisecond first differences, clamped at zero --
the runtime swaps in fresh counter objects when the timed region
starts, which would otherwise show up as one large negative delta).

The sampler schedules nothing: it reads the hook stream
(:meth:`~repro.cluster.Hooks.tap`), and the first hook at or after a
boundary takes that boundary's sample -- stamped at the boundary,
holding the state at that hook (several boundaries crossed by one quiet
stretch all hold the same state). :meth:`detach` fills the boundaries
left up to the run's end. Attaching it therefore moves no simulated
time and no event count. Like the whole obs package it is opt-in:
nothing samples until :meth:`start` is called.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ConfigError
from repro.metrics.trace import FULL_EVENTS
from repro.obs import instrumentation

#: NodeCounters fields sampled -- the protocol activity the report and
#: the Perfetto counter tracks plot.
FIELDS = (
    "page_faults",
    "diff_messages",
    "lock_acquires",
    "checkpoints",
    "diff_bytes_sent",
    "remote_page_fetches",
)


class TimeSeriesSampler:
    """Columnar sampler of per-node counters and engine/NIC gauges."""

    def __init__(self, runtime, period_us: float = 500.0) -> None:
        # A period that is not positive would never move the grid past
        # ``now``, and filling it would never end.
        if not period_us > 0:
            raise ConfigError(
                f"sampling period must be > 0 us: {period_us}")
        self.runtime = runtime
        self.engine = runtime.engine
        self.period_us = period_us
        self.times: List[float] = []
        #: series name -> per-sample values. Counter series are named
        #: ``node{n}.{field}`` (cumulative); gauges are
        #: ``engine.queue_depth`` and ``node{n}.nic_queue``.
        self.series: Dict[str, List[float]] = {}
        #: The first grid boundary not yet sampled.
        self._next = 0.0
        #: The hook subscription; empty while not attached.
        self._tap: list = []

    def start(self) -> None:
        """Sample now (the grid's origin) and start reading hooks."""
        if self._tap:
            return
        self._next = self.engine.now
        self._fill()
        self._tap = self.runtime.cluster.hooks.tap(FULL_EVENTS, self._on_hook)

    def detach(self) -> None:
        """Stop sampling, after filling every boundary up to the run's
        end (the engine's current time)."""
        if self._tap:
            self.runtime.cluster.hooks.untap(self._tap)
            self._fill()

    def _on_hook(self, name: str, node_id: int, info: dict) -> None:
        if self.engine.now < self._next:
            return
        self._fill()

    def _fill(self) -> None:
        """One sample per boundary at or before now, each stamped at
        its boundary and holding the state of this instant."""
        now = self.engine.now
        while self._next <= now:
            self._sample(self._next)
            self._next += self.period_us

    def _sample(self, time: float) -> None:
        instrumentation.bump("sampler")
        self.times.append(time)
        put = self._put
        for n, agent in enumerate(self.runtime.agents):
            counters = agent.counters
            for field in FIELDS:
                put(f"node{n}.{field}", getattr(counters, field))
        put("engine.queue_depth", self.engine.queue_depth)
        for n, node in enumerate(self.runtime.cluster.nodes):
            put(f"node{n}.nic_queue", len(node.nic.post_queue))

    def _put(self, key: str, value: float) -> None:
        col = self.series.get(key)
        if col is None:
            # A series appearing late (recovery lane) back-fills zeros
            # so every column stays aligned with the time axis.
            col = self.series[key] = [0.0] * (len(self.times) - 1)
        col.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """Cluster-wide cumulative value per sampled counter field."""
        num_nodes = self.runtime.config.num_nodes
        out: Dict[str, List[float]] = {}
        for field in FIELDS:
            cols = [self.series.get(f"node{n}.{field}")
                    for n in range(num_nodes)]
            cols = [c for c in cols if c]
            out[field] = [sum(col[i] for col in cols)
                          for i in range(len(self.times))]
        return out

    def rates(self) -> Tuple[List[float], Dict[str, List[float]]]:
        """Per-millisecond event rates (first differences of
        :meth:`totals`, clamped at zero). Returns ``(times, rates)``
        where ``times`` drops the first sample."""
        times = self.times[1:]
        rates: Dict[str, List[float]] = {}
        for field, values in self.totals().items():
            col = []
            for i in range(1, len(values)):
                dt_ms = (self.times[i] - self.times[i - 1]) / 1000.0
                if dt_ms <= 0:
                    col.append(0.0)
                    continue
                # Clamp: the runtime zeroes counters at timing start,
                # which is a bookkeeping reset, not negative work.
                col.append(max(0.0, (values[i] - values[i - 1]) / dt_ms))
            rates[field] = col
        return times, rates

    def gauge(self, key: str) -> List[float]:
        return list(self.series.get(key, ()))

    # ------------------------------------------------------------------
    # Perfetto counter tracks
    # ------------------------------------------------------------------

    def to_chrome_counters(self, cluster_pid: int) -> List[dict]:
        """``"ph": "C"`` counter events: the engine queue depth on the
        cluster process and, per node, the NIC queue depth plus the
        sampled activity counters."""
        events: List[dict] = []
        num_nodes = self.runtime.config.num_nodes
        queue = self.series.get("engine.queue_depth", [])
        for i, ts in enumerate(self.times):
            if i < len(queue):
                events.append({"ph": "C", "pid": cluster_pid, "tid": 0,
                               "ts": ts, "name": "engine queue",
                               "args": {"pending": queue[i]}})
            for n in range(num_nodes):
                args = {}
                nic = self.series.get(f"node{n}.nic_queue")
                if nic and i < len(nic):
                    args["nic_queue"] = nic[i]
                for field in FIELDS:
                    col = self.series.get(f"node{n}.{field}")
                    if col and i < len(col):
                        args[field] = col[i]
                if args:
                    events.append({"ph": "C", "pid": n, "tid": 0,
                                   "ts": ts, "name": "activity",
                                   "args": args})
        return events
