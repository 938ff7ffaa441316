"""Flight-recorder trace: schema, span nesting, and determinism.

The golden digest pins the trace for the flagship two-failure scenario
byte-for-byte: any change to event ordering, payload shaping, or JSON
serialization shows up here before it shows up as a confusing Perfetto
timeline. The cross-jobs test reruns the same scenario through the
parallel orchestrator at ``jobs=1`` and ``jobs=2`` and demands the same
digest, proving the trace is a function of the seeds alone.
"""

import json

import pytest

from repro.obs import FlightRecorder
from repro.parallel import RunSpec, run_specs
from repro.parallel.runners import RUNNERS
from repro.verify.replay import ReplayScenario, build_runtime

# Flagship fault-injection scenario: seed 145/1, plan 533, two failures,
# two clean recoveries. sha256 over the canonical JSON serialization.
GOLDEN_SCENARIO = dict(program_seed=145, cluster_seed=1,
                       plan_seed=533, failures=2)
GOLDEN_DIGEST = (
    "df466545735a9889a1c90db7d65be41511c462f2a724182e26c67bf301757901")


def _record(scenario=None):
    runtime = build_runtime(ReplayScenario(**(scenario or GOLDEN_SCENARIO)))
    recorder = FlightRecorder(runtime)
    runtime.run()
    recorder.detach()
    return recorder


def test_trace_digest_matches_golden():
    assert _record().digest() == GOLDEN_DIGEST


def test_trace_digest_stable_across_runs():
    assert _record().to_json() == _record().to_json()


def _t_trace_digest(params):
    return {"digest": _record(params).digest()}


@pytest.fixture
def digest_runner():
    # Fork workers inherit this registry.
    RUNNERS["_t_trace_digest"] = _t_trace_digest
    yield
    RUNNERS.pop("_t_trace_digest", None)


def test_trace_digest_independent_of_jobs(digest_runner):
    digests = []
    for jobs in (1, 2):
        spec = RunSpec("_t_trace_digest", GOLDEN_SCENARIO)
        (result,) = run_specs([spec], jobs=jobs, cache=False)
        assert result.ok, result.error
        digests.append(result.summary["digest"])
    assert digests[0] == digests[1] == GOLDEN_DIGEST


def test_trace_is_valid_chrome_trace():
    body = json.loads(_record().to_json())
    events = body["traceEvents"]
    assert events, "empty trace"
    for ev in events:
        assert ev["ph"] in ("B", "E", "i", "M", "C")
        if ev["ph"] != "M":
            assert ev["ts"] >= 0
    # B/E spans must nest per (pid, tid) lane -- Perfetto rejects
    # mismatched ends, so a stack replay must balance exactly.
    stacks = {}
    for ev in events:
        if ev["ph"] == "B":
            stacks.setdefault((ev["pid"], ev["tid"]), []).append(ev["name"])
        elif ev["ph"] == "E":
            stack = stacks.get((ev["pid"], ev["tid"]))
            assert stack, f"E without B in lane {ev['pid']}/{ev['tid']}"
            stack.pop()
    assert all(not s for s in stacks.values()), f"unclosed spans: {stacks}"


def test_trace_contains_required_span_families():
    names = {ev["name"] for ev in
             json.loads(_record().to_json())["traceEvents"]}
    for needle in ("diff phase 1", "diff phase 2", "checkpoint A",
                   "checkpoint B", "barrier 0"):
        assert needle in names, f"missing span {needle!r}"
    assert any(n.startswith("fault page") for n in names)
    assert any(n.startswith("lock ") and n.endswith("hold")
               for n in names)
    assert any(n.startswith("recovery (node") for n in names)
    assert any(n.startswith("quiesce") for n in names)
    assert any(n.startswith("node ") and n.endswith("failed")
               for n in names)


def test_trace_tracks_are_named():
    events = json.loads(_record().to_json())["traceEvents"]
    meta = [ev for ev in events if ev["ph"] == "M"]
    process_names = {ev["args"]["name"] for ev in meta
                     if ev["name"] == "process_name"}
    assert "cluster" in process_names
    assert any(n.startswith("node ") for n in process_names)


def test_capacity_bound_counts_drops():
    runtime = build_runtime(ReplayScenario(**GOLDEN_SCENARIO))
    recorder = FlightRecorder(runtime, capacity=50)
    runtime.run()
    recorder.detach()
    assert recorder.dropped > 0
    body = json.loads(recorder.to_json())
    assert body["otherData"]["dropped_events"] == recorder.dropped
