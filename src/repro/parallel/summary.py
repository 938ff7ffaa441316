"""JSON-portable run summaries with a ``RunResult``-shaped surface.

Worker processes cannot cheaply ship a full :class:`RunResult` back to
the orchestrator (thread clocks are large and carry engine
references), and the cache must store results as plain JSON.
:class:`RunSummary` is the answer: a dict of scalars extracted from a
``RunResult`` -- breakdown components, aggregate counters, recovery
count, and a checksum of the final shared-memory contents -- exposed
through small view objects so that the figure pipeline's accessors
(``r.breakdown.four_component()``, ``r.counters.total.page_faults``,
``r.counters.home_diff_fraction``, ``r.elapsed_us``) work unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class _CounterTotals:
    """Attribute view over the aggregated counter dict."""

    def __init__(self, totals: Dict[str, int]) -> None:
        self.__dict__.update(totals)

    def __repr__(self) -> str:  # debugging aid
        return f"_CounterTotals({self.__dict__})"


class _CountersView:
    """The ``RunCounters`` surface: ``.total`` plus derived fractions."""

    def __init__(self, totals: Dict[str, int], home_diff_fraction: float,
                 mean_checkpoint_bytes: float) -> None:
        self.total = _CounterTotals(totals)
        self.home_diff_fraction = home_diff_fraction
        self.mean_checkpoint_bytes = mean_checkpoint_bytes


class _BreakdownView:
    """The ``Breakdown`` surface used by figures and benchmarks."""

    def __init__(self, four: Dict[str, float],
                 six: Dict[str, float]) -> None:
        self._four = four
        self._six = six

    def four_component(self) -> Dict[str, float]:
        return dict(self._four)

    def six_component(self) -> Dict[str, float]:
        return dict(self._six)


class RunSummary:
    """A run result reduced to JSON scalars (see module docstring)."""

    def __init__(self, data: Dict[str, Any]) -> None:
        self._data = data
        self.elapsed_us: float = data["elapsed_us"]
        self.recoveries: int = data.get("recoveries", 0)
        self.data_checksum: Optional[str] = data.get("data_checksum")
        self.breakdown = _BreakdownView(data.get("four_component", {}),
                                        data.get("six_component", {}))
        self.counters = _CountersView(
            data.get("counters", {}),
            data.get("home_diff_fraction", 0.0),
            data.get("mean_checkpoint_bytes", 0.0))

    def to_dict(self) -> Dict[str, Any]:
        return self._data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSummary":
        return cls(data)

    @classmethod
    def from_run_result(cls, result,
                        data_checksum: Optional[str] = None
                        ) -> "RunSummary":
        """Extract the portable summary from a live ``RunResult``."""
        total = result.counters.total
        counters = {name: getattr(total, name)
                    for name in sorted(total.__dataclass_fields__)}
        data = {
            "elapsed_us": result.elapsed_us,
            "recoveries": result.recoveries,
            "counters": counters,
            "home_diff_fraction": result.counters.home_diff_fraction,
            "mean_checkpoint_bytes": result.counters.mean_checkpoint_bytes,
            "four_component": result.breakdown.four_component(),
            "six_component": result.breakdown.six_component(),
            "data_checksum": data_checksum,
            "latency_hist": result.latency.to_dict(),
        }
        return cls(data)

    @property
    def latency(self):
        """The run's latency :class:`~repro.metrics.hist.MetricsRegistry`,
        restored from its portable serialization (merge-safe: workers
        ship sparse bucket dicts, the orchestrator rebuilds and merges
        them bit-identically regardless of job count)."""
        from repro.metrics.hist import MetricsRegistry
        return MetricsRegistry.from_dict(self._data.get("latency_hist"))
