"""Smoke test of the e2e benchmark at ``--quick`` sizes.

Collected by ``pytest benchmarks/e2e`` (needs ``PYTHONPATH=src:.``), not
by tier-1's ``testpaths``.
"""

import io
import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import compare

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Per-layer metrics only a traced run produces.
TRACED_ONLY = re.compile(
    r".*\.(self_s|self_share|calls_in|events_per_fault|events_per_acquire)"
    r"|host\.trace_overhead_ratio")


def _run(tmp_path, name, *flags):
    out = tmp_path / f"{name}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out",
         str(out), *flags],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def _printed(stdout):
    """{(workload, metric): unit} of the table rows."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 6 and parts[0] in WORKLOADS:
            rows[(parts[0], parts[1])] = parts[3]
    return rows


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("e2e")
    started = time.perf_counter()
    first = _run(tmp_path, "first")
    elapsed = time.perf_counter() - started
    return first, _run(tmp_path, "second"), elapsed


def test_quick_sizes_finish_in_time(quick_runs):
    assert quick_runs[2] < 30.0


def test_spec_names_are_well_formed():
    names = WORKLOADS + [m["name"] for section in ("end_to_end",
                                                   "per_layer")
                         for m in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_every_untraced_metric_is_printed_with_its_unit(quick_runs):
    (doc, stdout), _, _ = quick_runs
    rows = _printed(stdout)
    for workload in WORKLOADS:
        assert doc["workloads"][workload]["correct"]
        for section in ("end_to_end", "per_layer"):
            for m in SPEC[section]:
                if not TRACED_ONLY.fullmatch(m["name"]):
                    assert rows[(workload, m["name"])] == m["unit"]
        result = json.loads([line for line in stdout.splitlines()
                             if line.startswith('{"correct"')
                             ][WORKLOADS.index(workload)])
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert set(result["metrics"]) == {m["name"]
                                          for m in SPEC["end_to_end"]}


def test_exact_metrics_and_digest_repeat(quick_runs):
    (first, _), (second, _), _ = quick_runs
    for workload in WORKLOADS:
        a, b = (run["workloads"][workload] for run in (first, second))
        assert a["result_digest"] == b["result_digest"]
        for name, value in a["metrics"].items():
            if compare.clock_of(name) == "exact":
                assert b["metrics"][name] == value, (workload, name)


def test_traced_run_prints_every_layer_metric(tmp_path):
    doc, stdout = _run(tmp_path, "traced", "--workload", "kv_server",
                       "--trace")
    rows = _printed(stdout)
    for m in SPEC["per_layer"]:
        assert rows[("kv_server", m["name"])] == m["unit"]
    metrics = doc["workloads"]["kv_server"]["metrics"]
    shares = [value for name, value in metrics.items()
              if name.endswith(".self_share")]
    assert len(shares) == 12
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert metrics["obs.self_s"] == 0.0
    assert metrics["verify.self_s"] == 0.0
    trace = json.loads((HERE / "out" / "trace_kv_server.json").read_text())
    cells = [s for s in trace["spans"] if s["name"] == "cell"]
    assert len(cells) == 2 * doc["workloads"]["kv_server"]["attempted"]
    assert {s["name"] for s in trace["spans"] if s["parent"] is not None
            } >= {"construct", "timed", "run"}


def test_compare_flags_an_exact_change_and_a_host_regression(quick_runs):
    (first, _), _, _ = quick_runs
    changed = json.loads(json.dumps(first))
    metrics = changed["workloads"]["kv_server"]["metrics"]
    metrics["sim_elapsed_us"] += 1.0
    metrics["wall_s"] *= 1.5
    sink = io.StringIO()
    assert compare.compare(first, first, out=sink) == 0
    assert compare.compare(first, changed, out=sink) == 2
