"""Causal operation traces: tree shape, determinism, and flow events.

The golden digest pins the full causal-trace export for the flagship
two-failure scenario: operation ids, hop timings, tree nesting and the
normalized message indices, byte-for-byte. The structural tests then
demand what the ISSUE's acceptance criteria name: a page fault and a
lock acquire that each reconstruct as *multi-node* causal trees (a
remote service window with the reply nested under it; a lock-chase
crossing several nodes). Determinism is checked three ways: same
process twice, through ``parallel.run_specs`` at different job counts,
and pure-Python vs compiled simulation core in fresh interpreters.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import FlightRecorder
from repro.metrics.latency import OP_CLASSES
from repro.obs.optrace import OpTracer
from repro.parallel import RunSpec, run_specs
from repro.parallel.runners import RUNNERS
from repro.verify.replay import ReplayScenario, build_runtime

# Must match tests/obs/test_recorder.py -- the flagship scenario.
GOLDEN_SCENARIO = dict(program_seed=145, cluster_seed=1,
                       plan_seed=533, failures=2)
# sha256 over the canonical causal-tree serialization for that
# scenario: same seeds => same digest, on any host, job count or core.
GOLDEN_OPTRACE_DIGEST = (
    "af1650272cff65ea2e8a6b5a74e9fbeb439680fec692532adfd66693bda0c4cb")

REPO = Path(__file__).resolve().parents[2]
CCORE_BUILT = importlib.util.find_spec("repro.sim._ccore") is not None


def _trace(scenario):
    runtime = build_runtime(ReplayScenario(**scenario))
    t = OpTracer(runtime)
    runtime.run()
    t.detach()
    return t


@pytest.fixture(scope="module")
def tracer():
    return _trace(GOLDEN_SCENARIO)


def _tree_nodes(tree):
    """Every cluster node a tree touches (root + message ends +
    service hosts)."""
    nodes = {tree["node"]}

    def walk(children):
        for child in children:
            if "service" in child:
                nodes.add(child["node"])
            else:
                nodes.update((child["src"], child["dst"]))
            walk(child["children"])

    walk(tree["children"])
    return nodes


# -- structural acceptance criteria ------------------------------------------

def test_every_op_class_is_traced(tracer):
    present = {tracer.op(oid).op_class for oid in tracer.op_ids()}
    assert present == set(OP_CLASSES)


def test_page_fault_reconstructs_as_multinode_causal_tree(tracer):
    # A remote page fault must show the full causal chain: the fetch
    # request crossing the wire, the home node's service window, and
    # the reply nested *under* that window, spanning >= 2 nodes.
    for op_id in tracer.op_ids("page_fault"):
        tree = tracer.tree(op_id)
        if len(_tree_nodes(tree)) < 2:
            continue
        (req,) = tree["children"]
        assert req["kind"] == "service_req"
        assert req["src"] != req["dst"]
        assert req["wire_us"] > 0
        (window,) = req["children"]
        assert window["service"] == "svm_fetch_page"
        assert window["node"] == req["dst"]
        assert window["service_us"] is not None
        replies = [c for c in window["children"]
                   if c.get("kind") == "service_reply"]
        assert replies and replies[0]["dst"] == tree["node"]
        assert replies[0]["wire_us"] > 0
        assert tree["duration_us"] >= req["wire_us"]
        return
    pytest.fail("no multi-node page_fault tree in the golden scenario")


def test_lock_acquire_reconstructs_as_multinode_causal_tree(tracer):
    # A contended polling acquire chases the lock across nodes:
    # deposits and interval fetches to at least two remote nodes, all
    # attributed to the one operation id.
    best = None
    for op_id in tracer.op_ids("lock_acquire"):
        tree = tracer.tree(op_id)
        if best is None or len(_tree_nodes(tree)) > len(_tree_nodes(best)):
            best = tree
    assert best is not None
    assert len(_tree_nodes(best)) >= 3
    kinds = {child["kind"] for child in best["children"]}
    assert "deposit" in kinds
    assert "fetch_req" in kinds and "fetch_reply" in kinds
    assert all(child["wire_us"] is not None
               for child in best["children"])


def test_worst_is_deterministic_and_sorted(tracer):
    worst = tracer.worst(5, "page_fault")
    durations = [tracer.op(oid).duration_us for oid in worst]
    assert durations == sorted(durations, reverse=True)
    assert worst == tracer.worst(5, "page_fault")


def test_worst_ranks_only_what_the_latency_book_counts(tracer):
    """Exemplars come from the book: an operation begun in the init
    phase stays in the causal trace but is never listed as a worst."""
    start = tracer.runtime._timing_start_us
    assert any(tracer.op(op_id).start_us < start
               for op_id in tracer.op_ids("page_fault"))
    for op_class in OP_CLASSES:
        worst = tracer.worst(len(tracer), op_class)
        assert len(worst) == tracer.metrics.histograms[op_class].count
        assert all(tracer.op(op_id).start_us >= start for op_id in worst)


def test_render_shows_branches_and_timing(tracer):
    op_id = next(oid for oid in tracer.op_ids("page_fault")
                 if len(_tree_nodes(tracer.tree(oid))) >= 2)
    text = tracer.render(op_id)
    assert "[page_fault]" in text
    assert "service svm_fetch_page" in text
    assert "wire" in text
    assert "`- " in text


def test_metrics_registry_feeds_slo_pipeline(tracer):
    for op_class in OP_CLASSES:
        hist = tracer.metrics.histograms[op_class]
        assert hist.count > 0
        assert hist.count <= len(tracer.op_ids(op_class))
        pct = hist.percentiles()
        assert pct["p50"] <= pct["p99"] <= pct["p999"]


# -- determinism -------------------------------------------------------------

def test_optrace_digest_matches_golden(tracer):
    assert tracer.digest() == GOLDEN_OPTRACE_DIGEST


def _t_optrace_digest(params):
    return {"digest": _trace(params).digest()}


@pytest.fixture
def digest_runner():
    # Fork workers inherit this registry.
    RUNNERS["_t_optrace_digest"] = _t_optrace_digest
    yield
    RUNNERS.pop("_t_optrace_digest", None)


def test_optrace_digest_independent_of_jobs(digest_runner):
    digests = []
    for jobs in (1, 2):
        spec = RunSpec("_t_optrace_digest", GOLDEN_SCENARIO)
        (result,) = run_specs([spec], jobs=jobs, cache=False)
        assert result.ok, result.error
        digests.append(result.summary["digest"])
    assert digests[0] == digests[1] == GOLDEN_OPTRACE_DIGEST


DIGEST_SNIPPET = """
import json
import repro.sim as sim
from repro.obs.optrace import OpTracer
from repro.verify.replay import ReplayScenario, build_runtime
runtime = build_runtime(ReplayScenario(program_seed=145, cluster_seed=1,
                                       plan_seed=533, failures=2))
tracer = OpTracer(runtime)
runtime.run()
tracer.detach()
print(json.dumps({"accelerated": sim.ACCELERATED,
                  "digest": tracer.digest()}))
"""


@pytest.mark.skipif(not CCORE_BUILT, reason="compiled core not built")
def test_operation_ids_identical_pure_vs_compiled():
    def run(pure):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_PURE"] = "1" if pure else ""
        proc = subprocess.run([sys.executable, "-c", DIGEST_SNIPPET],
                              capture_output=True, text=True, env=env,
                              cwd=str(REPO), timeout=600)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    pure, accel = run(True), run(False)
    assert pure["accelerated"] is False
    assert accel["accelerated"] is True
    assert pure["digest"] == GOLDEN_OPTRACE_DIGEST
    assert accel["digest"] == GOLDEN_OPTRACE_DIGEST


# -- flight-recorder integration ---------------------------------------------

def test_flow_events_pair_and_overlay_on_recorder_trace():
    runtime = build_runtime(ReplayScenario(**GOLDEN_SCENARIO))
    recorder = FlightRecorder(runtime)
    tracer = OpTracer(runtime)
    runtime.run()
    recorder.detach()
    tracer.detach()
    flows = tracer.flow_events()
    assert flows
    starts = {ev["id"] for ev in flows if ev["ph"] == "s"}
    finishes = {ev["id"] for ev in flows if ev["ph"] == "f"}
    assert starts == finishes
    assert all(ev["ph"] in ("s", "f") for ev in flows)
    assert all(ev["bp"] == "e" for ev in flows if ev["ph"] == "f")
    # The combined export stays a valid Chrome trace and the flow
    # events do not perturb the recorder's own golden digest (same
    # constant as tests/obs/test_recorder.py).
    assert recorder.digest() == (
        "df466545735a9889a1c90db7d65be41511c462f2a724182e26c67bf301757901")
    body = json.loads(recorder.to_json(counters=flows))
    phases = {ev["ph"] for ev in body["traceEvents"]}
    assert phases <= {"B", "E", "i", "M", "C", "s", "f"}
    assert {"s", "f"} <= phases


def test_detach_restores_attach_points():
    runtime = build_runtime(ReplayScenario(**GOLDEN_SCENARIO))
    tracer = OpTracer(runtime)
    assert runtime.cluster.optrace is tracer
    tracer.detach()
    assert runtime.cluster.optrace is None
    assert all(node.nic.optrace is None
               for node in runtime.cluster.nodes)
