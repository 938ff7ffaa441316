"""HTML report rendering: structural validity, not pixel output.

Every SVG must parse as XML (a stray unescaped tooltip once broke
this), every chart's JSON payload must load, and the page must be
self-contained -- no external scripts, stylesheets, or fonts.
"""

import json
import re
import xml.etree.ElementTree as ET

from repro.obs import FlightRecorder, StallWatchdog, TimeSeriesSampler
from repro.obs.report import (
    line_chart,
    render_run_report,
    render_sweep_report,
    stacked_bar_chart,
)
from repro.parallel import model_check_spec, run_specs
from repro.verify.replay import ReplayScenario, build_runtime


def _full_run(failures=2):
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=533,
        failures=failures))
    recorder = FlightRecorder(runtime)
    sampler = TimeSeriesSampler(runtime, period_us=500.0)
    sampler.start()
    dog = StallWatchdog(runtime, horizon_us=50_000.0, recorder=recorder)
    dog.start()
    result = runtime.run()
    recorder.detach()
    return runtime, result, recorder, sampler, dog


def _assert_svgs_parse(html_text):
    svgs = re.findall(r"<svg.*?</svg>", html_text, re.S)
    assert svgs, "report contains no charts"
    for svg in svgs:
        ET.fromstring(svg)  # raises on malformed XML


def test_run_report_is_selfcontained_html():
    _, result, recorder, sampler, dog = _full_run()
    page = render_run_report(
        "mc 145/1/533x2", "flagship two-failure scenario",
        result, recorder, sampler, dog, trace_file="trace.json")
    assert page.startswith("<!DOCTYPE html>")
    # Self-contained: no external scripts or stylesheets.
    assert 'src="http' not in page
    assert "<link rel" not in page
    _assert_svgs_parse(page)
    for section in ("Protocol activity", "Timeline spans",
                    "Per-node counters"):
        assert section in page, f"missing section {section!r}"
    for payload in re.findall(
            r'<script type="application/json"[^>]*>(.*?)</script>',
            page, re.S):
        json.loads(payload)


def test_run_report_includes_watchdog_dumps_when_stalled():
    # A synthetic stall (one thread never spawned, the rest park at
    # barrier 0 forever) -- this test formerly rode the 537x2 recovery
    # deadlock, which is fixed and now runs clean.
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1))
    recorder = FlightRecorder(runtime)
    sampler = TimeSeriesSampler(runtime, period_us=500.0)
    sampler.start()
    dog = StallWatchdog(runtime, horizon_us=20_000.0, recorder=recorder)
    dog.start()
    runtime.workload.setup(runtime)
    runtime._create_threads()
    for rec in runtime.threads:
        if rec.tid != 3:
            runtime.spawn_thread(rec)
    runtime.engine.run(until=100_000.0)
    dog.detach()
    recorder.detach()
    page = render_run_report("synthetic stall", "deadlock", None,
                             recorder, sampler, dog,
                             trace_file="trace.json")
    assert "Stall watchdog" in page
    assert "wait-for graph" in page


def test_sweep_report_renders():
    specs = [model_check_spec(145, 1, 533, f) for f in (0, 1)]
    results = run_specs(specs, jobs=1, cache=False)
    page = render_sweep_report("sweep smoke", results)
    assert page.startswith("<!DOCTYPE html>")
    _assert_svgs_parse(page)
    for r in results:
        assert r.spec.tag in page


def test_line_chart_handles_degenerate_input():
    # No samples: renders an empty-state card rather than crashing.
    assert "no samples" in line_chart("empty", [], {})
    assert "<svg" in line_chart("flat", [0.0, 500.0],
                                {"x": [0.0, 0.0]})


def test_stacked_bar_chart_escapes_labels():
    page = stacked_bar_chart(
        "esc", {"<thread&0>": {"comp": 1.0}}, ["comp"])
    ET.fromstring(re.search(r"<svg.*?</svg>", page, re.S).group(0))
