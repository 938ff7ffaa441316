"""Recovery experiments (paper section 4.5).

The paper evaluates only the failure-free case and argues that its
design "eliminates recovery time" relative to log-replay schemes --
recovery is a bounded reconfiguration, not a re-execution. This bench
measures that claim: kill a node at representative protocol points
during real application runs, and report detection latency, recovery
(reconfiguration) time, and the end-to-end slowdown versus a
failure-free run. Every run still verifies its application result.
"""

import pytest

from benchmarks.conftest import run_once, save_result
from repro.cluster import Hooks
from repro.harness.experiments import build_app
from repro.harness.faultplan import FaultPlan


SCENARIOS = [
    ("WaterNsq", Hooks.LOCK_ACQUIRED, 10, 0.5, "between sync points"),
    ("WaterNsq", Hooks.RELEASE_COMMITTED, 6, 2.0, "during phase 1"),
    ("WaterNsq", Hooks.DIFF_PHASE1_DONE, 6, 0.1, "after point B"),
    ("WaterNsq", Hooks.DIFF_PHASE2_START, 6, 1.0, "during phase 2"),
    ("FFT", Hooks.BARRIER_ENTER, 3, 0.3, "at a barrier"),
    ("RadixLocal", Hooks.CHECKPOINT_A, 4, 0.5, "while checkpointing"),
]


def _run_scenario(app, hook, occurrence, delay, victim=3):
    runtime = build_app(app, "ft")
    [record] = FaultPlan.single(victim, hook, occurrence,
                                delay).apply(runtime.cluster)
    detect = {}
    runtime.cluster.hooks.on(
        Hooks.FAILURE_DETECTED,
        lambda nid, **kw: detect.setdefault("at", kw.get("time")))
    result = runtime.run()  # verifies the application result
    assert record.fired_at is not None, "injection never fired"
    detection_us = (detect.get("at", record.fired_at) - record.fired_at)
    return {
        "result": result,
        "elapsed_us": result.elapsed_us,
        "detection_us": detection_us,
        "recovery_us": runtime.recovery_manager.last_recovery_us,
        "recoveries": result.recoveries,
    }


def _recovery_table():
    rows = [f"{'scenario':42s} {'detect_us':>10s} {'recover_us':>11s} "
            f"{'run_us':>10s} {'vs clean':>9s}",
            "-" * 88]
    out = {}
    clean = {}
    for app, hook, occurrence, delay, label in SCENARIOS:
        if app not in clean:
            clean[app] = build_app(app, "ft").run().elapsed_us
        r = _run_scenario(app, hook, occurrence, delay)
        slowdown = r["elapsed_us"] / clean[app]
        name = f"{app}: killed {label}"
        rows.append(f"{name:42s} {r['detection_us']:10.1f} "
                    f"{r['recovery_us']:11.1f} {r['elapsed_us']:10.0f} "
                    f"{slowdown:8.2f}x")
        out[name] = {"detection_us": r["detection_us"],
                     "recovery_us": r["recovery_us"],
                     "slowdown": slowdown,
                     "recoveries": r["recoveries"]}
    return out, "\n".join(rows)


@pytest.mark.benchmark(group="recovery")
def test_recovery_time(benchmark):
    data, text = run_once(benchmark, _recovery_table)
    save_result("recovery", text)
    benchmark.extra_info["scenarios"] = {
        k: {kk: round(vv, 2) for kk, vv in v.items()}
        for k, v in data.items()}
    for name, row in data.items():
        assert row["recoveries"] == 1, f"{name}: recovery did not happen"
        # "Eliminating recovery time": reconfiguration is small relative
        # to the run, and the whole run stays within a few x of clean
        # (the survivors lose only the rendezvous + the victim's replay).
        assert row["slowdown"] < 4.0, f"{name}: recovery too expensive"
