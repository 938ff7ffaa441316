"""JSON-portable run summaries that restore the real result classes.

Worker processes need not ship a full :class:`RunResult` back to the
orchestrator (it holds one breakdown per thread and per-node counters),
and the cache must store results as plain JSON.
:class:`RunSummary` is the answer: it stores what a ``RunResult``'s
parts are *made of* -- the breakdown's fine and coarse totals by
category name, the aggregate counter totals, the latency registry's
sparse buckets -- and hands back the same :class:`Breakdown`,
:class:`RunCounters` and :class:`MetricsRegistry` a ``RunResult``
holds, minus the per-thread breakdowns. Both figure formats and both
counter ratios are therefore computed by one piece of code on either
side of the process boundary.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.metrics import Breakdown, MetricsRegistry, NodeCounters, RunCounters
from repro.metrics.breakdown import Category


def _by_name(totals: Dict[Category, float]) -> Dict[str, float]:
    return {cat.name: value for cat, value in totals.items()}


def _by_category(totals: Dict[str, float]) -> Dict[Category, float]:
    return {Category[name]: value for name, value in totals.items()}


class RunSummary:
    """A run result reduced to JSON scalars (see module docstring)."""

    def __init__(self, data: Dict[str, Any]) -> None:
        self._data = data
        self.elapsed_us: float = data["elapsed_us"]
        self.recoveries: int = data.get("recoveries", 0)
        self.data_checksum: Optional[str] = data.get("data_checksum")
        self.breakdown = Breakdown(_by_category(data.get("fine", {})),
                                   _by_category(data.get("coarse", {})))
        self.counters = RunCounters(
            NodeCounters(**data.get("counters", {})))

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
        return cls({
            "elapsed_us": result.elapsed_us,
            "recoveries": result.recoveries,
            "counters": asdict(result.counters.total),
            "fine": _by_name(result.breakdown.fine),
            "coarse": _by_name(result.breakdown.coarse),
            "data_checksum": data_checksum,
            "latency_hist": result.latency.to_dict(),
        })

    @property
    def latency(self) -> MetricsRegistry:
        """The run's latency registry, restored from its portable
        serialization (merge-safe: workers ship sparse bucket dicts,
        the orchestrator rebuilds and merges them bit-identically
        regardless of job count)."""
        return MetricsRegistry.from_dict(self._data.get("latency_hist"))
