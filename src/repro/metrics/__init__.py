"""Time-breakdown accounting, counters, and report formatting.

Public surface::

    from repro.metrics import Category, ThreadClock, Breakdown,
                               NodeCounters, RunCounters
"""

from repro.metrics.breakdown import Breakdown, Category, ThreadClock
from repro.metrics.charts import overhead_bars, stacked_bars, timeseries_panel
from repro.metrics.counters import NodeCounters, RunCounters
from repro.metrics.hist import Log2Histogram, MetricsRegistry
from repro.metrics.sharing import PageProfile, SharingProfiler
from repro.metrics.trace import (
    FULL_EVENTS,
    ProtocolTrace,
    TraceEvent,
)
from repro.metrics.report import (
    format_breakdown_table,
    overhead_percent,
)

__all__ = [
    "Category",
    "ThreadClock",
    "Breakdown",
    "NodeCounters",
    "RunCounters",
    "stacked_bars",
    "overhead_bars",
    "timeseries_panel",
    "Log2Histogram",
    "MetricsRegistry",
    "SharingProfiler",
    "PageProfile",
    "FULL_EVENTS",
    "ProtocolTrace",
    "TraceEvent",
    "format_breakdown_table",
    "overhead_percent",
]
