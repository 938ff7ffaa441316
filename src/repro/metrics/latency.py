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

#: Operation classes timed (and, with a tracer attached, traced) by
#: the protocol layers.
OP_CLASSES = (
    "page_fault", "lock_acquire", "barrier",
    "diff_phase1", "diff_phase2",
    "checkpoint_a", "checkpoint_b",
    "recovery_wave", "rereplicate",
)
