"""The observation spine: one attach path, one log, one schema, one
histogram book, one tracing idiom.

Each test here pins one of the "exactly one" properties, so that a
second copy cannot grow back unnoticed: a hook fired by ``src/`` with
no timeline meaning, an observer that cannot detach, a second log that
counts drops differently, a latency container beside the registry.
"""

import json
import pathlib
import re

from repro.cluster import Hooks
from repro.metrics import MetricsRegistry, ProtocolTrace
from repro.metrics.latency import OP_CLASSES
from repro.metrics.trace import (DEFAULT_EVENTS, FULL_EVENTS, INSTANTS,
                                 SPANS, STALL)
from repro.obs import (FlightRecorder, OpTracer, SloSpec, StallWatchdog,
                       TimeSeriesSampler, evaluate_slo, instrumentation)
from repro.obs.report import sweep_latency
from repro.obs.slo import latency_by_class
from repro.parallel import RunSummary, app_spec, run_specs
from repro.verify.replay import ReplayScenario, build_runtime

REPO = pathlib.Path(__file__).resolve().parents[2]
HOOK_NAMES = {value for key, value in vars(Hooks).items()
              if key.isupper() and isinstance(value, str)}


def _runtime(**scenario):
    scenario = {"program_seed": 145, "cluster_seed": 1, "plan_seed": 533,
                "failures": 0, **scenario}
    return build_runtime(ReplayScenario(**scenario))


def _subscribers(runtime):
    return {name: list(subs)
            for name, subs in runtime.cluster.hooks._subs.items() if subs}


# -- one schema ---------------------------------------------------------------

def test_every_hook_has_one_timeline_meaning():
    by_row = ([hook for span in SPANS for hook in (span.begin, span.end)]
              + [row.hook for row in INSTANTS])
    assert set(FULL_EVENTS) == set(by_row) - {STALL}
    assert len(set(FULL_EVENTS)) == len(FULL_EVENTS)
    assert set(FULL_EVENTS) <= HOOK_NAMES
    assert set(DEFAULT_EVENTS) <= set(FULL_EVENTS)
    # A span is opened by one row only, and what closes it exists.
    opened = [span.begin for span in SPANS]
    assert len(set(opened)) == len(opened)
    assert {span.end for span in SPANS} <= HOOK_NAMES


def test_no_hook_is_fired_without_a_schema_row():
    fired = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        fired.update(re.findall(r"\.fire\(\s*Hooks\.(\w+)",
                                path.read_text()))
    assert len(fired) > 20, "the scan found too few fire sites"
    unlisted = {name for name in fired
                if getattr(Hooks, name) not in FULL_EVENTS}
    assert not unlisted, (
        f"{sorted(unlisted)} fired by src/ but absent from SPANS / "
        "INSTANTS in repro.metrics.trace")


def test_the_docs_render_the_schema():
    doc = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    for s in SPANS:
        assert (f"| span | `{s.begin}` -> `{s.end}` | {s.lane} | {s.cat} "
                f"| `{s.label}` |") in doc
    for i in INSTANTS:
        assert (f"| instant | `{i.hook}` | {i.lane} | {i.cat} "
                f"| `{i.label}` |") in doc
    assert doc.count("\n| span | ") == len(SPANS)
    assert doc.count("\n| instant | ") == len(INSTANTS)


# -- one attach path ----------------------------------------------------------

def test_tap_delivers_the_stream_and_untap_removes_it():
    hooks, seen = Hooks(), []
    tap = hooks.tap(("a", "b"), lambda *event: seen.append(event))
    hooks.fire("a", 1, x=2)
    hooks.fire("c", 9)
    hooks.fire("b", 3)
    assert seen == [("a", 1, {"x": 2}), ("b", 3, {})]
    hooks.untap(tap)
    hooks.untap(tap)  # idempotent
    hooks.fire("a", 1)
    assert len(seen) == 2 and not any(hooks._subs.values())


def test_every_observer_detaches_completely():
    runtime = _runtime()
    # No fault plan in this scenario: the bus starts empty, so "holds
    # no subscriber" below is literal.
    assert _subscribers(runtime) == {}
    recorder = FlightRecorder(runtime)
    trace = ProtocolTrace(runtime.cluster, FULL_EVENTS)
    watchdog = StallWatchdog(runtime, horizon_us=20_000.0,
                             recorder=recorder)
    sampler = TimeSeriesSampler(runtime, period_us=500.0)
    tracer = OpTracer(runtime)
    sampler.start()
    watchdog.start()
    assert len(_subscribers(runtime)) == len(FULL_EVENTS)
    samples = len(sampler)
    for observer in (recorder, trace, watchdog, sampler, tracer):
        observer.detach()
    assert _subscribers(runtime) == {}
    assert runtime.cluster.optrace is None

    instrumentation.reset()
    result = runtime.run()
    assert result.elapsed_us > 0
    assert instrumentation.total() == 0, instrumentation.snapshot()
    assert len(recorder) == len(trace) == len(tracer) == 0
    assert len(sampler) == samples and not watchdog.dumps


# -- one log ------------------------------------------------------------------

def test_trace_and_recorder_hold_the_same_events():
    runtime = _runtime(failures=2)
    trace = ProtocolTrace(runtime.cluster, FULL_EVENTS,
                          capacity=1_000_000)
    recorder = FlightRecorder(runtime)
    runtime.run()
    assert len(recorder) > 500
    assert recorder.events() == trace.events()
    assert recorder.dropped == trace.dropped == 0
    # ...and the recorder answers the trace's queries.
    assert recorder.select(Hooks.RECOVERY_DONE) == trace.select(
        Hooks.RECOVERY_DONE) != []
    recorder.assert_ordering(Hooks.DIFF_PHASE1_DONE,
                             Hooks.DIFF_PHASE2_START)


def test_a_note_into_a_full_log_counts_a_drop():
    runtime = _runtime()
    recorder = FlightRecorder(runtime, capacity=4)
    for page in range(4):
        runtime.cluster.hooks.fire(Hooks.HOME_REMAP, 0, page=page)
    assert (len(recorder), recorder.dropped) == (4, 0)
    recorder.note(STALL, recorder.cluster_pid, why="full")
    assert (len(recorder), recorder.dropped) == (4, 1)
    doc = recorder.to_chrome_trace()
    assert doc["otherData"]["dropped_events"] == 1
    assert [ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "i"] == [
        "home remap"] * 3 + ["stall detected"]


def test_trace_events_are_tuple_shaped():
    runtime = _runtime()
    trace = ProtocolTrace(runtime.cluster, (Hooks.HOME_REMAP,))
    runtime.cluster.hooks.fire(Hooks.HOME_REMAP, 2, page=7)
    (event,) = trace.events()
    assert event == (0.0, Hooks.HOME_REMAP, 2, {"page": 7})
    assert (event.time_us, event.event, event.node, event.info) == event
    assert "home_remap" in str(event) and "page=7" in str(event)


# -- one histogram book -------------------------------------------------------

def test_run_summary_round_trips_the_registry():
    result = _runtime().run()
    assert isinstance(result.latency, MetricsRegistry)
    assert set(result.latency.histograms) <= set(OP_CLASSES)
    assert result.latency.histogram("lock_acquire").count > 0
    summary = RunSummary.from_run_result(result)
    wire = json.loads(json.dumps(summary.to_dict()))
    restored = RunSummary.from_dict(wire).latency
    assert isinstance(restored, MetricsRegistry)
    assert restored.to_dict() == result.latency.to_dict()


def test_tracer_reads_the_runs_one_book():
    runtime = _runtime()
    tracer = OpTracer(runtime)
    result = runtime.run()
    assert tracer.metrics is runtime.latency
    assert result.latency is runtime.latency
    spec = SloSpec("one", {"lock_acquire": {"p99": 1e9}})
    (check,) = evaluate_slo(spec, result.latency)["checks"]
    assert check["count"] == len(tracer.op_ids("lock_acquire")) > 0


def test_sweep_slo_gate_reads_every_class_it_names():
    # A sweep's merged book holds every operation class a single run
    # books, so the committed spec's checks read data; only recovery
    # needs a failure.
    specs = [app_spec(app, variant, scale="test")
             for app in ("FFT", "WaterNsq") for variant in ("base", "ft")]
    results = run_specs(specs, jobs=1, cache=False)
    assert all(r.ok for r in results)
    spec = SloSpec.load(REPO / "results" / "slo_default.json")
    report = evaluate_slo(spec, sweep_latency(results))
    for check in report["checks"]:
        if check["op_class"] not in ("recovery_wave", "rereplicate"):
            assert check["count"] > 0, check


def test_untraced_run_books_recovery_operations():
    # Recovery operations are timed with no tracer attached, one
    # sample per recovery.
    result = _runtime(failures=2).run()
    assert result.recoveries == 2
    by_class = latency_by_class(result.latency)
    for op_class in ("recovery_wave", "rereplicate"):
        assert by_class[op_class].count == result.recoveries


# -- one tracing idiom --------------------------------------------------------

def test_untraced_operations_share_one_noop_and_build_no_label():
    runtime = _runtime()
    agent = runtime.agents[0]
    # "%d" % "x" would raise: with no tracer the label is never built.
    with agent._traced("barrier", "barrier %d", "x") as op:
        assert op is None
    # Begun before the timed region: not in the book.
    assert not runtime.latency.histograms

    tracer = OpTracer(runtime)
    try:
        with agent._traced("barrier", "barrier %s", 3) as op:
            assert tracer.op(op).label == "barrier 3"
            assert tracer.op(op).end_us is None
            raise KeyError("left by an exception")
    except KeyError:
        pass
    assert tracer.op(op).end_us is not None
