"""Worker side: run one workload in this process and measure it.

Closed loop, one thread: a pass runs the workload's cells one after
another; passes repeat until ``--seconds`` is used up (at least two, so
that ``result_digest`` can be compared between repeats). Simulated
metrics and counts are exact and must be identical in every pass; a
host time is, cell by cell, the best of the passes.

Three host clocks are kept apart per cell:

* construct -- ``SvmRuntime(...)`` (+ checker): part of ``setup_s``;
* timed     -- ``runtime.run(verify=True)`` (+ attach / export / render
  in an observed cell): ``wall_s``;
* check     -- digests, garbage collection, speed samples: in neither.

**Host times are speed-normalised, then best-of-N.** The boxes this
runs on change speed by +-25 % for seconds to tens of seconds at a time
(measured: the same pass took 3.0-4.2 s back to back), which medians
over the two to six passes that fit in a run do not remove: they gave
quartile spreads of 5-10 % between runs of one commit. Two steps do:

1. ``bench_calibration`` -- the fixed interpreter workload the hot-path
   gate already uses -- is sampled *between* cells, and every host time
   of a cell is multiplied by ``CAL_REF_US`` / (mean of the samples
   before and after it): seconds as they would read on a machine where
   the calibration takes ``CAL_REF_US``.
2. Each cell's time is the least of its passes (the noise is one-sided:
   nothing makes a cell run faster than the machine allows), and a
   workload's time is the sum over cells.

Replayed on 20 recorded passes per workload they gave spreads of 2-6 %
(`README.md`, "Steadiness"). The unscaled figure stays visible as
``host.raw_wall_s``, the gauge as ``host.calibration_us``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict
from typing import Dict, List, Optional

from benchmarks.e2e.trace import (
    LAYERS,
    OTHER,
    LayerProfile,
    SpanLog,
    duration,
)
from benchmarks.e2e.workloads import (
    PAPER_BAND,
    Cell,
    cells_for,
    probe_runtime,
)

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Calibration of the reference speed host times are scaled to; close
#: to this box's, so that scaled seconds read like real ones here.
CAL_REF_US = 20.0
#: Least host time between two pauses (a speed sample costs ~25 ms).
CAL_SPACING_S = 0.25
#: The host-clock fields of a cell record.
HOST_FIELDS = ("construct_s", "timed_s", "attach_s", "export_s", "cpu_s")
#: Planning figure for how much longer a traced pass takes; only used
#: to decide whether another untraced pass still fits in ``--seconds``.
TRACED_PASS_COST = 3.5


class SpeedGauge:
    """The pause between cells, outside every clock: collect garbage,
    then sample the machine's speed.

    A finished runtime is a large cyclic graph. Collecting it here keeps
    ``peak_rss_mb`` about one cell rather than the garbage of all passes
    (which also slowed the next construction several-fold)."""

    def __init__(self) -> None:
        from benchmarks.bench_hotpaths import bench_calibration
        self._calibrate = bench_calibration
        self._taken_at = float("-inf")
        self.samples: List[float] = []

    def sample(self, force: bool = False) -> float:
        """The current calibration (us): a new sample if the last one
        is older than ``CAL_SPACING_S``, else that one again."""
        if force or time.perf_counter() - self._taken_at >= CAL_SPACING_S:
            gc.collect()
            self.samples.append(self._calibrate())
            self._taken_at = time.perf_counter()
        return self.samples[-1]


# -- one cell ----------------------------------------------------------------

def _attach_observers(runtime):
    """What ``repro report`` attaches, with its default periods."""
    from repro.obs import (
        FlightRecorder,
        OpTracer,
        StallWatchdog,
        TimeSeriesSampler,
    )
    recorder = FlightRecorder(runtime)
    tracer = OpTracer(runtime)
    sampler = TimeSeriesSampler(runtime, period_us=500.0)
    watchdog = StallWatchdog(runtime, horizon_us=20_000.0,
                             recorder=recorder)
    sampler.start()
    watchdog.start()
    return recorder, tracer, sampler, watchdog


def _export_report(observers, result, label: str,
                   outdir: pathlib.Path) -> None:
    """The output half of ``repro report``: Perfetto trace, metrics
    JSON, HTML report and both trace digests."""
    from repro.obs.report import render_run_report

    recorder, tracer, sampler, watchdog = observers
    trace_path = outdir / "trace.json"
    recorder.export(trace_path, counters=(
        sampler.to_chrome_counters(recorder.cluster_pid)
        + tracer.flow_events()))
    (outdir / "metrics.json").write_text(json.dumps(
        tracer.metrics.to_dict(), sort_keys=True, indent=2) + "\n")
    (outdir / "report.html").write_text(render_run_report(
        label, "benchmarks/e2e obs_report", result=result,
        recorder=recorder, sampler=sampler, watchdog=watchdog,
        trace_file=trace_path.name, tracer=tracer))
    recorder.digest()
    tracer.digest()


def _result_piece(runtime, result) -> str:
    """This cell's share of ``result_digest``: simulated outcome and
    the home copy of every segment. ``events_executed`` is left out on
    purpose -- an event diet may change it legitimately."""
    h = hashlib.sha256()
    h.update(repr((result.elapsed_us, result.recoveries,
                   result.exposed_window_us,
                   sorted(asdict(result.counters.total).items()))
                  ).encode())
    segments = runtime.cluster.address_space.segments()
    for name in sorted(segments):
        segment = segments[name]
        h.update(name.encode())
        h.update(runtime.debug_read(segment.base_addr,
                                    segment.size_bytes))
    return h.hexdigest()


def run_cell(cell: Cell, spans: SpanLog, scratch: pathlib.Path,
             profile: Optional[LayerProfile] = None) -> dict:
    """Construct, run and check one cell; returns its record."""
    from repro.obs import instrumentation

    instrumentation.reset()
    attach = export = None
    result, findings, error = None, [], ""
    with spans.span("cell", label=cell.label) as whole:
        with spans.span("construct", whole) as construct:
            runtime, checker = cell.build()
        cpu0 = time.process_time()
        with spans.span("timed", whole) as timed, \
                (profile.timed_region() if profile else nullcontext()):
            try:
                if cell.observed:
                    with spans.span("attach", timed) as attach:
                        observers = _attach_observers(runtime)
                with spans.span("run", timed):
                    result = runtime.run(verify=True,
                                         max_sim_us=cell.max_sim_us)
                    if checker is not None:
                        findings = checker.finalize()
                if cell.observed:
                    with spans.span("export", timed) as export:
                        _export_report(observers, result, cell.label,
                                       scratch)
            except Exception as exc:  # noqa: BLE001 -- a failed cell is
                # a result (failed_share), not a reason to stop.
                result, error = None, f"{type(exc).__name__}: {exc}"
        cpu_s = time.process_time() - cpu0
    if findings:
        error = "; ".join(str(finding) for finding in findings[:3])

    record = {
        "label": cell.label, "variant": cell.variant, "pair": cell.pair,
        "observed": cell.observed, "ok": not error, "error": error,
        "construct_s": duration(construct), "timed_s": duration(timed),
        "attach_s": duration(attach) if attach else 0.0,
        "export_s": duration(export) if export else 0.0,
        "cpu_s": cpu_s, "events": runtime.engine.events_executed,
        "obs_calls": instrumentation.total(),
        "checked": checker is not None, "findings": len(findings),
        "ops": 0, "piece": error.split(":")[0],
    }
    if result is None:
        return record
    total = result.counters.total
    nics = [node.nic for node in runtime.cluster.nodes]
    record.update(
        elapsed_us=result.elapsed_us,
        recoveries=result.recoveries,
        exposed_window_us=result.exposed_window_us,
        counters=asdict(total),
        net={"messages": sum(nic.messages_sent for nic in nics),
             "bytes": sum(nic.bytes_sent for nic in nics),
             "post_queue_stalls": sum(nic.post_queue_stalls
                                      for nic in nics)},
        recorder_events=len(observers[0]) if cell.observed else 0,
        traced_ops=len(observers[1]) if cell.observed else 0,
        piece=_result_piece(runtime, result))
    if not error:
        # A failed cell contributes its host time and no operations.
        record["ops"] = (total.page_faults + total.acquires
                         + total.releases + total.barriers)
    return record


def run_pass(cells: List[Cell], spans: SpanLog, scratch: pathlib.Path,
             gauge: SpeedGauge, profile: Optional[LayerProfile] = None,
             stop_at: Optional[float] = None,
             costs: Optional[List[float]] = None) -> List[dict]:
    """One pass over the cells: their records, host times scaled to
    the reference speed. With ``stop_at`` (a ``perf_counter`` reading)
    the pass ends before the first cell whose cost would overrun it, so
    it may cover only the leading cells. Only scored cells are
    profiled, so that the layer table adds up to the traced
    ``wall_s``."""
    has_observed = any(cell.observed for cell in cells)
    records, marks = [], []
    for index, cell in enumerate(cells):
        began = time.perf_counter()
        if stop_at is not None and began + costs[index] > stop_at:
            break
        marks.append(gauge.sample())
        scored = cell.observed or not has_observed
        records.append(run_cell(cell, spans, scratch,
                                profile if scored else None))
        records[-1]["cost_s"] = time.perf_counter() - began
    if not records:
        return records
    marks.append(gauge.sample(force=True))
    for record, before, after in zip(records, marks, marks[1:]):
        record["speed"] = CAL_REF_US / ((before + after) / 2)
        record["raw_timed_s"] = record["timed_s"]
        for field in HOST_FIELDS:
            record[field] *= record["speed"]
    return records


def best_of(passes: List[List[dict]]) -> List[dict]:
    """Cell by cell, the least of each host time over the passes (the
    last pass may be shorter than the others)."""
    best = [dict(record) for record in passes[0]]
    for records in passes[1:]:
        for kept, record in zip(best, records):
            for field in HOST_FIELDS + ("raw_timed_s",):
                kept[field] = min(kept[field], record[field])
    return best


# -- from cell records to metrics --------------------------------------------

def _scored(records: List[dict]) -> List[dict]:
    """The cells ``wall_s`` and the counts are taken over: the observed
    (on) cells where a workload has them, otherwise all."""
    return [r for r in records if r["observed"]] or records


def _pass_digest(records: List[dict]) -> str:
    return hashlib.sha256("".join(
        r["label"] + r["piece"] for r in records).encode()).hexdigest()


def _overheads(records: List[dict]) -> Dict[tuple, float]:
    """FT overhead (%) of each complete (base, ft) pair."""
    sides: Dict[tuple, Dict[str, float]] = {}
    for r in records:
        if r["ok"] and r["pair"] is not None:
            sides.setdefault(tuple(r["pair"]), {})[r["variant"]] = \
                r["elapsed_us"]
    return {pair: 100.0 * (s["ft"] - s["base"]) / s["base"]
            for pair, s in sides.items() if len(s) == 2}


def _tail(samples_ms: List[float]) -> Dict[str, float]:
    """Highest percentile with at least ten samples beyond it; none
    where there are fewer than twenty cells."""
    n = len(samples_ms)
    if n < 20:
        return {"percentile": 0, "n": n, "value": 0.0}
    percentile = 100 * (n - 10) // n
    return {"percentile": percentile, "n": n,
            "value": sorted(samples_ms)[n * percentile // 100]}


def exact_metrics(name: str, records: List[dict]) -> Dict[str, float]:
    """Simulated results and counts of one pass; identical every pass."""
    scored = _scored(records)
    good = [r for r in scored if r["ok"]]

    def total(field: str) -> int:
        return sum(r["counters"][field] for r in good)

    def net(field: str) -> int:
        return sum(r["net"][field] for r in good)

    ops = sum(r["ops"] for r in scored)
    events = sum(r["events"] for r in scored)
    # Simulated time is read off the cells nothing observes: a sampler
    # stretches ``elapsed_us`` to its next tick (obs.sim_shift_us).
    plain = [r for r in records if r["ok"] and not r["observed"]]
    sim = {variant: sum(r["elapsed_us"] for r in plain
                        if r["variant"] == variant)
           for variant in ("base", "ft")}
    observed_us = sum(r["elapsed_us"] for r in good if r["observed"])
    misses = 0
    if name == "fig_matrix":
        for (_app, threads), pct in _overheads(plain).items():
            lo, hi = PAPER_BAND[threads]
            misses += not lo <= pct <= hi
    acquires = total("lock_acquires")
    return {
        "sim_elapsed_us": sim["base"] + sim["ft"],
        "failed_share": (sum(not r["ok"] for r in records)
                         / len(records)),
        "ft_overhead_pct": (100.0 * (sim["ft"] - sim["base"])
                            / sim["base"] if sim["base"] else 0.0),
        "overhead_band_misses": misses,
        "exposed_window_us_max": max(
            (r["exposed_window_us"] for r in plain), default=0.0),
        "sim.events": events,
        "sim.events_per_op": events / ops if ops else 0.0,
        "net.messages": net("messages"),
        "net.bytes": net("bytes"),
        "net.messages_per_op": net("messages") / ops if ops else 0.0,
        "net.post_queue_stalls": net("post_queue_stalls"),
        "memory.page_faults": total("page_faults"),
        "memory.remote_page_fetches": total("remote_page_fetches"),
        "memory.twins_created": total("twins_created"),
        "memory.pages_diffed": total("pages_diffed"),
        "memory.diff_bytes": total("diff_bytes_sent"),
        "protocol.lock_acquires": acquires,
        "protocol.lock_retries_per_acquire": (
            total("lock_retries") / acquires if acquires else 0.0),
        "protocol.barriers": total("barriers"),
        "protocol.releases": total("releases"),
        "protocol.diff_messages": total("diff_messages"),
        "protocol.invalidations": total("invalidations"),
        "protocol.ft.checkpoints": total("checkpoints"),
        "protocol.ft.checkpoint_bytes": total("checkpoint_bytes"),
        "protocol.ft.recoveries": sum(r["recoveries"] for r in good),
        "protocol.ft.release_serialization_stalls": total(
            "release_serialization_stalls"),
        "verify.cases_checked": sum(r["checked"] for r in good),
        "verify.findings": sum(r["findings"] for r in scored),
        "obs.recorder_events": sum(r["recorder_events"] for r in good),
        "obs.traced_ops": sum(r["traced_ops"] for r in good),
        "obs.sim_shift_us": (observed_us - sim["base"] - sim["ft"]
                             if observed_us else 0.0),
        "obs.calls_when_off": sum(r["obs_calls"] for r in records
                                  if not r["observed"]),
        "harness.cells": len(records),
        "harness.svm_ops": ops,
    }


def host_metrics(records: List[dict]) -> Dict[str, float]:
    """Host-clock figures of one pass (or of the best of several)."""
    scored = _scored(records)

    def seconds(cells, field="timed_s") -> float:
        return sum(r[field] for r in cells)

    wall = seconds(scored)
    sample = {
        "wall_s": wall,
        "svm_ops_per_s": sum(r["ops"] for r in scored) / wall,
        "harness.construct_s": seconds(records, "construct_s"),
        "harness.wall_s_base": seconds(
            [r for r in scored if r["variant"] == "base"]),
        "harness.wall_s_ft": seconds(
            [r for r in scored if r["variant"] == "ft"]),
        "host.cpu_s": seconds(scored, "cpu_s"),
        "host.raw_wall_s": seconds(scored, "raw_timed_s"),
        "obs_on_ratio": 0.0,
        "obs.attach_run_s": 0.0,
        "obs.export_render_s": seconds(scored, "export_s"),
    }
    if len(scored) < len(records):
        off_wall = seconds([r for r in records if not r["observed"]])
        sample["obs_on_ratio"] = wall / off_wall
        sample["obs.attach_run_s"] = (
            wall - sample["obs.export_render_s"] - off_wall)
    return sample


def probe_metrics() -> Dict[str, float]:
    """Whole-run events per fault / per acquire on the two 4-node
    synthetics, base and ft: exact and machine-independent."""
    out = {}
    for variant, prefix in (("base", "protocol"), ("ft", "protocol.ft")):
        for kind, counter, metric in (
                ("fault", "page_faults", "events_per_fault"),
                ("lock", "lock_acquires", "events_per_acquire")):
            runtime = probe_runtime(kind, variant)
            result = runtime.run(verify=True)
            out[f"{prefix}.{metric}"] = (
                runtime.engine.events_executed
                / getattr(result.counters.total, counter))
    return out


# -- the workload ------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool, spawned_at: float) -> dict:
    """Run workload ``name`` and return its result document."""
    from repro.sim import ACCELERATED

    if ACCELERATED:
        raise SystemExit("refusing to report: REPRO_PURE=1 was set but "
                         "repro.sim.ACCELERATED is true")
    startup_s = time.time() - spawned_at
    OUT_DIR.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="report_",
                                            dir=OUT_DIR))
    try:
        return _measure(name, seed, seconds, trace, quick, startup_s,
                        scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(name, seed, seconds, trace, quick, startup_s,
             scratch) -> dict:
    spans = SpanLog()
    with spans.span("generate") as generate:
        cells = cells_for(name, seed, quick)
    gauge = SpeedGauge()

    # Full passes while they are owed (two, for the digest check; one
    # before a traced pass), then whatever cells still fit the budget.
    began = time.perf_counter()
    passes = [run_pass(cells, spans, scratch, gauge)]
    costs = [record["cost_s"] for record in passes[0]]
    reserve = TRACED_PASS_COST * sum(costs) if trace else 0.0
    while True:
        owed = len(passes) < (1 if trace else 2)
        records = run_pass(
            cells, spans, scratch, gauge, costs=costs,
            stop_at=None if owed else began + seconds - reserve)
        if records:
            passes.append(records)
        if len(records) < len(cells):
            break
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    best = best_of(passes)
    metrics = exact_metrics(name, passes[0])
    metrics.update(host_metrics(best))
    metrics["setup_s"] = (
        (startup_s + duration(generate)) * passes[0][0]["speed"]
        + metrics["harness.construct_s"])
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["sim.host_us_per_event"] = (
        1e6 * metrics["wall_s"] / metrics["sim.events"])
    cell_ms = [1e3 * r["timed_s"] for r in _scored(best)]
    tail = _tail(cell_ms)
    metrics["harness.cell_ms_p50"] = statistics.median(cell_ms)
    metrics["harness.cell_ms_tail"] = tail["value"]
    repeatable = all(record["piece"] == first["piece"]
                     for records in passes
                     for record, first in zip(records, passes[0]))

    if trace:
        metrics.update(probe_metrics())
        profile = LayerProfile()
        traced = run_pass(cells, spans, scratch, gauge, profile)
        repeatable &= _pass_digest(traced) == _pass_digest(passes[0])
        speed = statistics.fmean(r["speed"] for r in _scored(traced))
        layer_table = profile.table()
        for layer in LAYERS + (OTHER,):
            row = layer_table[layer]
            row["self_s"] *= speed
            metrics[f"{layer}.self_s"] = row["self_s"]
            metrics[f"{layer}.self_share"] = row["self_share"]
            if layer != OTHER:
                metrics[f"{layer}.calls_in"] = row["calls_in"]
        metrics["host.trace_overhead_ratio"] = (
            host_metrics(traced)["wall_s"] / metrics["wall_s"])
        (OUT_DIR / f"trace_{name}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "layers": layer_table,
             "spans": spans.spans}, indent=1) + "\n")
    metrics["host.calibration_us"] = statistics.fmean(gauge.samples)

    failures = [{"label": r["label"], "error": r["error"]}
                for r in passes[0] if not r["ok"]]
    per_pass = [host_metrics(records) for records in passes
                if len(records) == len(cells)]
    return {
        "workload": name, "seed": seed, "quick": quick, "build": "pure",
        "passes": sum(len(records) for records in passes) / len(cells),
        "traced": trace,
        "attempted": len(cells), "failed": len(failures),
        "failures": failures,
        "result_digest": _pass_digest(passes[0]),
        "repeatable": repeatable,
        "correct": (repeatable and not failures
                    and metrics["obs.calls_when_off"] == 0),
        "cell_ms_tail": {k: tail[k] for k in ("percentile", "n")},
        "metrics": metrics,
        # What each pass alone would have read: compare.py takes the
        # spread of these as the run's own repeat spread.
        "samples": {key: [sample[key] for sample in per_pass]
                    for key in ("wall_s", "svm_ops_per_s",
                                "obs_on_ratio")},
    }
