"""``run_case``: the one place a model-check case is run under its cap
and judged (the ``model_check`` runner and ``repro replay`` both call
it); and the bisector ``replay`` hands a divergence to."""

import math

import pytest

from repro.apps.base import Workload
from repro.config import ClusterConfig, ProtocolParams
from repro.errors import ApplicationError, ConfigError
from repro.harness.runner import SvmRuntime
from repro.metrics.trace import TraceEvent
from repro.protocol.ft.protocol import FtSvmNodeAgent
from repro.verify import RecoveryInvariantChecker, replay
from repro.verify.replay import (
    ReplayScenario,
    bisect_divergence,
    build_runtime,
    probe,
    run_case,
)


class _Spinner(Workload):
    """Threads with an odd tid compute forever; the rest return."""

    name = "spinner"

    def setup(self, runtime) -> None:
        pass

    def kernel(self, ctx):
        while ctx.tid % 2:
            yield from ctx.svm.compute(100.0)


class _WrongAnswer(_Spinner):
    def kernel(self, ctx):
        yield from ctx.svm.compute(100.0)

    def verify(self, runtime) -> None:
        raise ApplicationError("final memory is wrong")


class _RaisesAt(_Spinner):
    """Thread 0 raises after 1000 us of compute; the rest return."""

    def kernel(self, ctx):
        yield from ctx.svm.compute(1000.0)
        if ctx.tid == 0:
            raise ApplicationError("read a value no thread wrote")


def _runtime(workload, variant="base"):
    return SvmRuntime(ClusterConfig(
        num_nodes=4, shared_pages=16, num_locks=4,
        protocol=ProtocolParams(variant=variant)), workload)


def test_budget_exhausted_with_stuck_threads_is_a_hang():
    runtime = _runtime(_Spinner())
    run = run_case(runtime, 5_000.0)
    assert run.outcome == "hang"
    assert run.unfinished == [1, 3]
    assert "threads never finished: [1, 3]" in run.error
    assert run.result is None
    assert runtime.engine.now >= 5_000.0


def test_verify_failure_is_a_mismatch():
    run = run_case(_runtime(_WrongAnswer()), 5_000.0)
    assert run.outcome == "mismatch"
    assert run.unfinished == []
    assert run.error == "ApplicationError: final memory is wrong"


def run_clean(runtime):
    """Run and judge a case with ``run_case`` -- the invariant checker
    attached to an ft run, the workload's analytic verify inside -- and
    demand a clean verdict; returns the run's result."""
    run = run_case(runtime)
    assert (run.outcome, run.error, run.findings) == ("clean", None, [])
    return run.result


def test_ft_case_runs_checked_and_returns_its_result(monkeypatch):
    checkers = []

    class Recorded(RecoveryInvariantChecker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            checkers.append(self)

    monkeypatch.setattr(replay, "RecoveryInvariantChecker", Recorded)
    assert run_clean(build_runtime(ReplayScenario(145, 1, 533, 2))
                     ).recoveries == 2
    [checker] = checkers
    assert checker.audits_run > 0  # the checker actually looked


def test_scenario_refuses_failures_it_cannot_inject():
    with pytest.raises(ConfigError, match="need a plan seed"):
        ReplayScenario(145, 1, failures=2)
    with pytest.raises(ConfigError, match="failures must be >= 0"):
        ReplayScenario(145, 1, 533, -1)
    # A plan seed with no failures is the failure-free twin of a case.
    assert ReplayScenario(145, 1, 533, 0).failures == 0


def test_bisection_survives_a_run_that_raises(monkeypatch):
    raised = _runtime(_RaisesAt(), "ft")
    assert run_case(raised).outcome == "mismatch"
    raised_at = raised.engine.now
    monkeypatch.setattr(replay, "build_runtime",
                        lambda scenario: _runtime(_RaisesAt(), "ft"))
    ticks = [TraceEvent(float(t), "tick", 0, {})
             for t in range(0, 3000, 100)]
    first = bisect_divergence(ReplayScenario(0, 0), ticks)
    assert raised_at <= first["time_us"] < raised_at + 100
    [finding] = first["findings"]
    assert finding.invariant == "raised"
    assert "ApplicationError" in finding.detail


#: One committed diff apply, at the primary home of its page, whose
#: corruption is never overwritten before the run reads it back.
SABOTAGED = (0, "comm", 2, 2, 1)  # (node, phase, writer, seq, page)


def test_bisection_lands_on_a_sabotaged_diff_apply(monkeypatch):
    apply_one_diff = FtSvmNodeAgent._apply_one_diff

    def sabotaged(self, phase, writer, interval, seq, diff):
        yield from apply_one_diff(self, phase, writer, interval, seq, diff)
        if (self.node_id, phase, writer, seq, diff.page_id) == SABOTAGED:
            offset, _data = diff.runs[0]
            self.committed.page_view(diff.page_id)[offset] ^= 0xFF

    monkeypatch.setattr(FtSvmNodeAgent, "_apply_one_diff", sabotaged)
    logged, stops = [], []
    bisect = replay.bisect_divergence

    def seen(scenario, events):
        logged.extend(sorted({ev.time_us for ev in events}))
        return bisect(scenario, events)

    def counted(scenario, until_us):
        stops.append(until_us)
        return probe(scenario, until_us)

    monkeypatch.setattr(replay, "bisect_divergence", seen)
    monkeypatch.setattr(replay, "probe", counted)
    scenario = ReplayScenario(145, 1)
    run, first = replay.replay(scenario)
    assert run.outcome != "clean"
    assert first["probes"] == len(stops)
    assert len(stops) <= math.ceil(math.log2(len(logged))) + 3
    k = logged.index(first["time_us"])
    assert k > 0
    assert not probe(scenario, logged[k - 1])
    assert probe(scenario, logged[k]) == first["findings"]
    assert first["events"] and all(ev.time_us == logged[k]
                                   for ev in first["events"])


def test_a_hang_is_not_bisected(monkeypatch):
    monkeypatch.setattr(replay, "build_runtime",
                        lambda scenario: _runtime(_Spinner()))

    def no_probe(scenario, until_us):
        raise AssertionError("a hang was bisected")

    monkeypatch.setattr(replay, "probe", no_probe)
    run, first = replay.replay(ReplayScenario(0, 0))
    assert run.outcome == "hang" and run.unfinished == [1, 3]
    assert first is None


def test_a_base_run_is_judged_not_bisected():
    # Base runs have no invariant checker, so there is nothing to audit
    # a probe with: replay returns run_case's verdict and no divergence
    # (350/1 on two threads a node is one of base's SMP mismatches).
    run, first = replay.replay(
        ReplayScenario(350, 1, variant="base", threads_per_node=2))
    assert run.outcome in ("clean", "mismatch")
    assert run.findings == []
    assert first is None
