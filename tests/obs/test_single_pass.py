"""The single-pass output pipeline: one materialisation, same bytes.

``repro report`` walks the event log once and builds every causal tree
once, streaming both into the trace file: the pass that writes the
file also leaves the hash state and the span inventory behind, the
pass that yields the flow events also leaves the digest. These tests
pin what that must not change: the bytes, whatever the call order;
that recording after an export is seen by the next one; that
documents handed to a caller are the caller's; the "once"; and that
the export holds nothing the size of what it writes.
"""

import hashlib
import json
import tracemalloc
from itertools import chain
from types import SimpleNamespace

import pytest

from repro.apps.kvstore import KVStore
from repro.cluster import Hooks
from repro.errors import ProtocolError
from repro.harness import SvmRuntime, evaluation_config, workload_factories
from repro.obs import (
    FlightRecorder,
    OpTracer,
    StallWatchdog,
    TimeSeriesSampler,
)
from repro.metrics.latency import OP_CLASSES
from repro.obs.report import render_run_report
from repro.verify.replay import ReplayScenario, build_runtime


def _fft():
    return SvmRuntime(evaluation_config("ft", 1),
                      workload_factories("test")["FFT"]())


def _kvstore():
    return SvmRuntime(evaluation_config("ft", 1, seed=2003),
                      KVStore(buckets=256, txns_per_thread=10, seed=2003))


def _faults():
    return build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=533, failures=2))


#: name -> (builder, simulated-time cap). The flagship two-failure
#: scenario is cut off after its first recovery, so the recorder has to
#: close spans itself: a dead node's, and those open at the cap.
RUNS = {"FFT/ft": (_fft, None), "KVStore/ft": (_kvstore, None),
        "145/1/533x2 capped": (_faults, 2400.0)}


def _observe(build, max_sim_us=None):
    """One run with what ``repro report`` attaches; observers stay
    attached so a test can record after the run."""
    runtime = build()
    recorder = FlightRecorder(runtime)
    tracer = OpTracer(runtime)
    sampler = TimeSeriesSampler(runtime, period_us=500.0)
    watchdog = StallWatchdog(runtime, horizon_us=20_000.0,
                             recorder=recorder)
    sampler.start()
    watchdog.start()
    try:
        result = runtime.run(max_sim_us=max_sim_us)
    except ProtocolError:
        assert max_sim_us is not None
        result = None
    return SimpleNamespace(runtime=runtime, recorder=recorder,
                           tracer=tracer, sampler=sampler,
                           watchdog=watchdog, result=result)


def _extras(obs):
    return (obs.sampler.to_chrome_counters(obs.recorder.cluster_pid)
            + obs.tracer.flow_events())


def _export(obs, tmp_path):
    path = tmp_path / "trace.json"
    count = obs.recorder.export(path, counters=_extras(obs))
    return count, path.read_bytes()


def _report(obs, _tmp_path):
    return render_run_report(
        "run", "single-pass", result=obs.result, recorder=obs.recorder,
        sampler=obs.sampler, watchdog=obs.watchdog,
        trace_file="trace.json", tracer=obs.tracer)


#: Every output of the pipeline, by name.
OUTPUTS = {
    "export": _export,
    "digest": lambda obs, _: (obs.recorder.digest(),
                              obs.recorder.digest(_extras(obs))),
    "to_json": lambda obs, _: (obs.recorder.to_json(),
                               obs.recorder.to_json(_extras(obs))),
    "report": _report,
    "tracer.digest": lambda obs, _: (obs.tracer.digest(),
                                     obs.tracer.to_json()),
    "tracer.flow_events": lambda obs, _: obs.tracer.flow_events(),
}


def _forget(obs):
    """Drop whatever an earlier output left behind."""
    obs.recorder._memo = obs.tracer._digest = None


@pytest.fixture(scope="module", params=sorted(RUNS))
def pair(request):
    """(observers to exercise, reference outputs of a second, fresh
    run of the same inputs -- each output computed once there)."""
    return _observe(*RUNS[request.param]), _observe(*RUNS[request.param])


def _orders(names):
    """Every rotation of the names, forwards and backwards: each output
    comes first once (and so leaves behind what the others then use)
    and every two outputs run in both relative orders. All 720
    permutations would take minutes for no further state."""
    names = list(names)
    for base in (names, names[::-1]):
        for at in range(len(base)):
            yield tuple(base[at:] + base[:at])


def test_outputs_equal_a_fresh_run_in_every_order_twice(pair, tmp_path):
    obs, fresh = pair
    expected = {name: fn(fresh, tmp_path) for name, fn in OUTPUTS.items()}
    assert expected["export"][0] > 0 and expected["tracer.flow_events"]
    # digest() and to_json() are one serialization, the file a third view.
    for digest, text in zip(expected["digest"], expected["to_json"]):
        assert digest == hashlib.sha256(text.encode()).hexdigest()
    assert expected["export"][1].decode() == expected["to_json"][1]
    digest, text = expected["tracer.digest"]
    assert digest == hashlib.sha256(text.encode()).hexdigest()
    for order in _orders(OUTPUTS):
        _forget(obs)
        for name in order + order:
            assert OUTPUTS[name](obs, tmp_path) == expected[name], (
                f"{name} differs in order {order}")


def test_export_memory_stays_below_what_it_writes(tmp_path):
    """The export streams: the log is encoded a chunk at a time, the
    flow events are drawn from the tracer's walk as they are written,
    and nothing the size of the trace is ever held."""
    obs = _observe(lambda: SvmRuntime(
        evaluation_config("ft", 1, seed=2003),
        KVStore(buckets=256, txns_per_thread=40, seed=2003)))
    extras = chain(obs.sampler.to_chrome_counters(obs.recorder.cluster_pid),
                   obs.tracer.iter_flow_events())
    path = tmp_path / "trace.json"
    tracemalloc.start()
    try:
        count = obs.recorder.export(path, counters=extras)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
    text = path.read_text()
    assert text == obs.recorder.to_json(_extras(obs))
    assert count == len(json.loads(text)["traceEvents"])


def test_capped_fault_run_has_auto_closed_spans():
    obs = _observe(*RUNS["145/1/533x2 capped"])
    assert obs.result is None
    doc = obs.recorder.to_chrome_trace()
    assert doc["otherData"]["auto_closed_spans"] > 0
    assert any(ev["name"].startswith("recovery (node")
               for ev in doc["traceEvents"])


@pytest.mark.parametrize("late", ["note", "hook"])
def test_event_recorded_after_an_export_is_in_the_next(late, tmp_path):
    obs = _observe(_fft)
    count, before = _export(obs, tmp_path)
    digest = obs.recorder.digest()
    inventory = obs.recorder.span_inventory()
    if late == "note":
        obs.recorder.note("stall", obs.recorder.cluster_pid, why="late")
        needle = b'"stall detected"'
    else:
        obs.runtime.cluster.hooks.fire(Hooks.HOME_REMAP, 0, page=7)
        needle = b'"home remap"'
    assert needle not in before
    count_after, after = _export(obs, tmp_path)
    assert needle in after and count_after > count
    assert obs.recorder.digest() != digest
    assert obs.recorder.span_inventory() == inventory  # instants only


def test_hop_or_finish_after_a_digest_changes_the_next():
    obs = _observe(_fft)
    before = obs.tracer.digest()
    op_id = obs.tracer.mint("barrier", 0, "late op")
    minted = obs.tracer.digest()
    assert minted != before
    msg = SimpleNamespace(op=op_id, msg_id=10 ** 9, kind="late", src=0,
                          dst=1, wire_bytes=32)
    obs.tracer.message_hop("send", msg, 0, 5.0)
    hopped = obs.tracer.digest()
    assert hopped != minted
    obs.tracer.finish(op_id)
    assert obs.tracer.digest() not in (before, minted, hopped)
    assert obs.tracer.tree(op_id)["end_us"] is not None


def test_returned_documents_belong_to_the_caller():
    obs = _observe(_faults)
    text, digest = obs.recorder.to_json(), obs.tracer.digest()
    doc = obs.recorder.to_chrome_trace()
    for ev in doc["traceEvents"]:
        ev["name"] = "scribbled"
        ev.get("args", {}).clear()
    doc["traceEvents"].clear()
    doc["otherData"]["dropped_events"] = -1
    assert obs.recorder.to_json() == text

    op_id = obs.tracer.worst(1)[0]
    rendered = obs.tracer.render(op_id)
    tree = obs.tracer.tree(op_id)
    tree["label"] = "scribbled"
    tree["children"].clear()
    for tree in obs.tracer.to_dict()["ops"]:
        tree["children"] = None
    assert obs.tracer.digest() == digest
    assert obs.tracer.render(op_id) == rendered


def test_one_report_is_one_assembly_and_one_tree_per_op(monkeypatch,
                                                        tmp_path):
    obs = _observe(_kvstore)
    assemblies, builds = [], []
    assemble, build = FlightRecorder._assemble, OpTracer.tree

    def counting_assemble(self, *args):
        assemblies.append(self)
        return assemble(self, *args)

    def counting_build(self, op_id):
        builds.append(op_id)
        return build(self, op_id)

    monkeypatch.setattr(FlightRecorder, "_assemble", counting_assemble)
    monkeypatch.setattr(OpTracer, "tree", counting_build)
    # What `repro report` and benchmarks/e2e do with a finished run.
    _export(obs, tmp_path)
    page = _report(obs, tmp_path)
    obs.recorder.digest()
    obs.tracer.digest()
    assert len(assemblies) == 1
    # One walk over every op (flow events + digest), then only the
    # exemplars the report prints: the worst op of each class.
    ops = obs.tracer.op_ids()
    exemplars = page.count("<pre class='dump' id='op-")
    assert 0 < exemplars <= len(OP_CLASSES)
    assert builds[:len(ops)] == ops and len(builds) == len(ops) + exemplars
