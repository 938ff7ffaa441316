"""Per-operation latency classes.

Section 5.3 argues through *average* operation latencies: lock wait
time ("more than a two-fold increase" for Water-Nsquared) and data
wait per page fault ("the average wait time per page increases", 3-15%
overhead). Every protocol operation is timed once, by the seam that
brackets it (``SvmNodeAgent._traced``), into the run's one
:class:`~repro.metrics.hist.MetricsRegistry` (``SvmRuntime.latency``,
``RunResult.latency``) under its class below, one deterministic
:class:`~repro.metrics.hist.Log2Histogram` each, serving both lenses
-- count/mean/max (the paper's section 5.3) and p50/p99/p999 (the SLO
gate).
"""

from __future__ import annotations

from repro.metrics.hist import MetricsRegistry

#: Operation classes timed (and, with a tracer attached, traced) by
#: the protocol layers.
OP_CLASSES = (
    "page_fault", "lock_acquire", "barrier",
    "diff_phase1", "diff_phase2",
    "checkpoint_a", "checkpoint_b",
    "recovery_wave", "rereplicate",
)


def latency_table(metrics: MetricsRegistry) -> str:
    """Count / mean / max of every operation class that ran."""
    lines = [f"{'operation':14s} {'count':>8s} {'mean_us':>10s} "
             f"{'max_us':>10s}"]
    for op in OP_CLASSES:
        hist = metrics.histograms.get(op)
        if hist is not None and hist.count:
            lines.append(f"{op:14s} {hist.count:8d} "
                         f"{hist.mean_us:10.2f} {hist.max_us:10.2f}")
    return "\n".join(lines)
