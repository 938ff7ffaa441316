"""Per-operation latency statistics.

Section 5.3 argues through *average* operation latencies: lock wait
time ("more than a two-fold increase" for Water-Nsquared), data wait
per page fault ("the average wait time per page increases", 3-15%
overhead), and release cost. This module collects those samples at the
protocol layer so benchmarks can report them directly.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.metrics.hist import Log2Histogram

#: Operation names tracked by the protocol agents.
LOCK_WAIT = "lock_wait"
PAGE_FAULT = "page_fault"
RELEASE = "release"
BARRIER_WAIT = "barrier_wait"

ALL_OPS = (LOCK_WAIT, PAGE_FAULT, RELEASE, BARRIER_WAIT)


class LatencyBook:
    """Per-node collection of operation latency statistics: one
    deterministic :class:`~repro.metrics.hist.Log2Histogram` per
    operation class, serving both lenses -- count/mean/max (the
    paper's section 5.3) and p50/p99/p999 (the SLO gate). Histograms
    merge bit-identically across any worker partition of the sample
    stream, and restore whole from a run summary."""

    def __init__(self) -> None:
        self._hists: Dict[str, Log2Histogram] = {
            op: Log2Histogram() for op in ALL_OPS}

    def record(self, op: str, value_us: float) -> None:
        self._hists[op].record(value_us)

    def hist(self, op: str) -> Log2Histogram:
        return self._hists[op]

    #: ``stats(op).count / .mean_us / .max_us`` -- the same object.
    stats = hist

    def percentiles(self, op: str) -> Dict[str, float]:
        """p50/p99/p999 upper bounds (us) for one operation class."""
        return self._hists[op].percentiles()

    def to_dict(self) -> dict:
        """Canonical JSON-portable form, as shipped in run summaries."""
        return {op: self._hists[op].to_dict() for op in ALL_OPS
                if self._hists[op].count}

    @classmethod
    def from_dict(cls, data) -> "LatencyBook":
        out = cls()
        for op, hist in (data or {}).items():
            out._hists[op] = Log2Histogram.from_dict(hist)
        return out

    @classmethod
    def merged(cls, books: Iterable["LatencyBook"]) -> "LatencyBook":
        out = cls()
        for book in books:
            for op in ALL_OPS:
                out._hists[op].merge(book._hists[op])
        return out

    def table(self) -> str:
        lines = [f"{'operation':14s} {'count':>8s} {'mean_us':>10s} "
                 f"{'max_us':>10s}"]
        for op in ALL_OPS:
            hist = self._hists[op]
            if not hist.count:
                continue
            lines.append(f"{op:14s} {hist.count:8d} "
                         f"{hist.mean_us:10.2f} {hist.max_us:10.2f}")
        return "\n".join(lines)
