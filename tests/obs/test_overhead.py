"""Observability must cost nothing when it is off.

The hook bus early-returns when no subscriber is registered, so a run
without a recorder/sampler/watchdog attached must execute *zero*
observability callbacks -- not "few", zero. Every obs closure bumps a
module-level call counter (repro.obs.instrumentation) precisely so this
test can count them; benchmarks/e2e reads the same counters for its
unobserved cells as ``obs.calls_when_off``.
"""

from repro.harness.experiments import build_app, run_app
from repro.obs import FlightRecorder, TimeSeriesSampler, StallWatchdog
from repro.obs import instrumentation
from repro.verify.replay import ReplayScenario, build_runtime, run_case
from tests.integration.test_run_capped import _runtime, _WrongAnswer


def test_figure7_cell_with_obs_off_invokes_no_hooks():
    instrumentation.reset()
    result = run_app("FFT", "ft", scale="test")
    assert result.elapsed_us > 0
    snap = instrumentation.snapshot()
    assert snap == {"recorder": 0, "sampler": 0, "watchdog": 0,
                    "optrace": 0}, snap


def test_no_environment_switch_attaches_anything(monkeypatch, tmp_path):
    # Once read to attach a crash-trace recorder and an invariant
    # checker to every run; a run is what its caller builds.
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    instrumentation.reset()
    runtime = build_app("FFT", "ft", scale="test")  # = run_app's cell
    assert runtime.run().elapsed_us > 0
    assert instrumentation.total() == 0, instrumentation.snapshot()
    assert not any(runtime.cluster.hooks._subs.values())
    # A run that raises leaves no trace file behind either.
    assert run_case(_runtime(_WrongAnswer())).outcome == "mismatch"
    assert list(tmp_path.iterdir()) == []


def test_counters_move_when_obs_is_on():
    instrumentation.reset()
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=533, failures=0))
    recorder = FlightRecorder(runtime)
    sampler = TimeSeriesSampler(runtime, period_us=500.0)
    sampler.start()
    dog = StallWatchdog(runtime, horizon_us=50_000.0)
    dog.start()
    runtime.run()
    recorder.detach()
    snap = instrumentation.snapshot()
    assert snap["recorder"] > 0
    assert snap["sampler"] > 0
    assert snap["watchdog"] > 0


def test_detach_unsubscribes():
    instrumentation.reset()
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=533, failures=0))
    recorder = FlightRecorder(runtime)
    recorder.detach()
    runtime.run()
    assert instrumentation.snapshot()["recorder"] == 0
