"""Per-operation latency names.

Section 5.3 argues through *average* operation latencies: lock wait
time ("more than a two-fold increase" for Water-Nsquared), data wait
per page fault ("the average wait time per page increases", 3-15%
overhead), and release cost. The protocol agents observe those samples
into a :class:`~repro.metrics.hist.MetricsRegistry` (``agent.latency``,
merged into ``RunResult.latency``) under the names below, one
deterministic :class:`~repro.metrics.hist.Log2Histogram` each, serving
both lenses -- count/mean/max (the paper's section 5.3) and
p50/p99/p999 (the SLO gate).
"""

from __future__ import annotations

from repro.metrics.hist import MetricsRegistry

#: Operation names tracked by the protocol agents.
LOCK_WAIT = "lock_wait"
PAGE_FAULT = "page_fault"
RELEASE = "release"
BARRIER_WAIT = "barrier_wait"

ALL_OPS = (LOCK_WAIT, PAGE_FAULT, RELEASE, BARRIER_WAIT)


def latency_table(metrics: MetricsRegistry) -> str:
    """Count / mean / max of every operation in ``ALL_OPS`` that ran."""
    lines = [f"{'operation':14s} {'count':>8s} {'mean_us':>10s} "
             f"{'max_us':>10s}"]
    for op in ALL_OPS:
        hist = metrics.histograms.get(op)
        if hist is not None and hist.count:
            lines.append(f"{op:14s} {hist.count:8d} "
                         f"{hist.mean_us:10.2f} {hist.max_us:10.2f}")
    return "\n".join(lines)
