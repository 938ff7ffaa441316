"""SLO specs and evaluation over the operation-latency pipeline.

An :class:`SloSpec` names per-operation-class latency targets (p50 /
p99 / p999, simulated microseconds) plus an optional availability
floor. Evaluation (:func:`evaluate_slo`) reads the per-class
:class:`~repro.metrics.hist.Log2Histogram` latency distributions from a
:class:`~repro.metrics.hist.MetricsRegistry` -- a single run's, or the
merged registry of a whole sweep -- and produces a machine-readable
verdict: one check per (class, quantile) target, each with the target,
the measured value and a pass flag.

Availability follows the paper's redundancy-exposure argument: the
fraction of the run during which data was *not* one-copy-exposed,
``1 - exposed_window_us / elapsed_us``. A run with no failures is
trivially 100% available.

Everything here is deterministic and JSON-round-trippable: specs load
from / dump to plain JSON (the committed default lives at
``results/slo_default.json`` and gates CI), and evaluation reports are
written next to run artifacts by ``repro report --spec`` /
``repro sweep --slo``.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.metrics.hist import Log2Histogram, MetricsRegistry
from repro.metrics.latency import OP_CLASSES

#: Quantile keys a spec may target, in report order.
QUANTILES = ("p50", "p99", "p999")


def latency_by_class(metrics: MetricsRegistry) -> Dict[str, Log2Histogram]:
    """Operation class -> its non-empty latency histogram, in name
    order: what SLO specs target and both HTML reports tabulate."""
    return {name: hist for name, hist in sorted(metrics.histograms.items())
            if hist.count}


class SloSpec:
    """Latency + availability targets for a cluster configuration.

    Every target must be one the evaluation can check: an operation
    class of ``OP_CLASSES``, a quantile of ``QUANTILES`` and a positive
    number of microseconds. Anything else raises :class:`ConfigError`
    naming the key -- a misspelt class would otherwise pass vacuously
    and an unknown quantile would be dropped without a check line.
    """

    def __init__(self, name: str,
                 latency_targets_us: Dict[str, Dict[str, float]],
                 availability_min: Optional[float] = None) -> None:
        for op_class, targets in latency_targets_us.items():
            if op_class not in OP_CLASSES:
                raise ConfigError(
                    f"SLO {name!r}: unknown operation class {op_class!r} "
                    f"(one of {', '.join(OP_CLASSES)})")
            for quantile, target in targets.items():
                if quantile not in QUANTILES:
                    raise ConfigError(
                        f"SLO {name!r}: {op_class}: unknown quantile "
                        f"{quantile!r} (one of {', '.join(QUANTILES)})")
                if isinstance(target, bool) or not (
                        isinstance(target, (int, float)) and target > 0):
                    raise ConfigError(
                        f"SLO {name!r}: {op_class}.{quantile}: target "
                        f"must be a positive number of us, not {target!r}")
        self.name = name
        #: op class -> {"p50": us, "p99": us, "p999": us} (any subset).
        self.latency_targets_us = latency_targets_us
        #: Minimum fraction of the run not one-copy-exposed, or None.
        self.availability_min = availability_min

    @classmethod
    def from_dict(cls, data: dict) -> "SloSpec":
        return cls(data["name"], data["latency_targets_us"],
                   data.get("availability_min"))

    @classmethod
    def load(cls, path) -> "SloSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def evaluate_slo(spec: SloSpec, metrics: MetricsRegistry,
                 elapsed_us: Optional[float] = None,
                 exposed_window_us: float = 0.0) -> dict:
    """Evaluate ``spec`` against measured latency distributions.

    Returns a JSON-able report::

        {"spec": ..., "ok": bool,
         "checks": [{"op_class", "quantile", "target_us",
                     "actual_us", "count", "ok"}, ...],
         "availability": {"min", "actual", "exposed_window_us",
                          "elapsed_us", "ok"} | None}

    A class with no recorded operations passes vacuously (``actual_us``
    is None, ``count`` 0) -- a spec may cover operation classes a
    particular workload never exercises.
    """
    checks = []
    ok = True
    by_class = latency_by_class(metrics)
    for op_class in sorted(spec.latency_targets_us):
        targets = spec.latency_targets_us[op_class]
        hist = by_class.get(op_class)
        quantiles = hist.percentiles() if hist is not None else {}
        for quantile in QUANTILES:
            if quantile not in targets:
                continue
            target = float(targets[quantile])
            actual = quantiles.get(quantile)
            passed = actual is None or actual <= target
            ok = ok and passed
            checks.append({
                "op_class": op_class, "quantile": quantile,
                "target_us": target, "actual_us": actual,
                "count": hist.count if hist is not None else 0,
                "ok": passed,
            })
    availability = None
    if spec.availability_min is not None and elapsed_us:
        actual = 1.0 - exposed_window_us / elapsed_us
        passed = actual >= spec.availability_min
        ok = ok and passed
        availability = {
            "min": spec.availability_min, "actual": actual,
            "exposed_window_us": exposed_window_us,
            "elapsed_us": elapsed_us, "ok": passed,
        }
    return {"spec": spec.name, "ok": ok, "checks": checks,
            "availability": availability}


def format_slo_report(report: dict) -> str:
    """Fixed-width text rendering of an evaluation report."""
    lines = [f"SLO spec: {report['spec']}   "
             f"verdict: {'PASS' if report['ok'] else 'FAIL'}"]
    lines.append(f"  {'op class':<16} {'q':>5} {'target':>12} "
                 f"{'actual':>12} {'n':>7}  ok")
    for check in report["checks"]:
        actual = check["actual_us"]
        lines.append(
            f"  {check['op_class']:<16} {check['quantile']:>5} "
            f"{check['target_us']:>10.0f}us "
            + (f"{actual:>10.0f}us " if actual is not None
               else f"{'(no data)':>12} ")
            + f"{check['count']:>7}  "
            + ("pass" if check["ok"] else "FAIL"))
    avail = report.get("availability")
    if avail is not None:
        lines.append(
            f"  availability: {avail['actual'] * 100:.4f}% "
            f"(min {avail['min'] * 100:.4f}%, exposed "
            f"{avail['exposed_window_us']:.0f}us of "
            f"{avail['elapsed_us']:.0f}us)  "
            + ("pass" if avail["ok"] else "FAIL"))
    return "\n".join(lines)
