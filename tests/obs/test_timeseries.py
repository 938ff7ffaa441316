"""Time-series sampler: cadence, columnar layout, and derived views."""

import pytest

from repro.errors import ConfigError
from repro.metrics import timeseries_panel
from repro.obs import TimeSeriesSampler
from repro.verify.replay import ReplayScenario, build_runtime


def _sampled(period_us=500.0, failures=0):
    runtime = build_runtime(ReplayScenario(
        program_seed=145, cluster_seed=1, plan_seed=533,
        failures=failures))
    sampler = TimeSeriesSampler(runtime, period_us=period_us)
    sampler.start()
    runtime.run()
    return runtime, sampler


@pytest.mark.parametrize("period_us", [0, -5])
def test_sampler_rejects_a_nonpositive_period(period_us):
    # A period that is not positive never moves the grid past now: the
    # first hook would append samples forever.
    runtime = build_runtime(ReplayScenario(145, 1))
    with pytest.raises(ConfigError, match="must be > 0"):
        TimeSeriesSampler(runtime, period_us=period_us)


def test_samples_sit_on_the_period_grid():
    # Two recoveries: the run's last hook comes more than a period
    # before its end, so only detach's fill reaches the end.
    runtime, sampler = _sampled(period_us=500.0, failures=2)
    end = runtime.engine.now
    during = len(sampler)
    sampler.detach()
    times = sampler.times
    assert len(times) >= during > 2
    # Every sample is stamped at its boundary, k * period from 0 ...
    assert times == [500.0 * k for k in range(len(times))]
    # ... and detach fills the grid up to the run's end, no further.
    assert end - 500.0 < times[-1] <= end


def test_series_are_columnar_and_aligned():
    _, sampler = _sampled()
    n = len(sampler.times)
    assert n > 2
    for key, column in sampler.series.items():
        assert len(column) == n, f"ragged column {key}"
    totals = sampler.totals()
    assert totals["page_faults"][-1] > 0


def test_rates_are_nonnegative():
    _, sampler = _sampled()
    times, rates = sampler.rates()
    assert len(times) == len(sampler.times) - 1
    for field, column in rates.items():
        assert all(v >= 0 for v in column), field


def test_gauges_track_queue_depth():
    _, sampler = _sampled()
    depth = sampler.gauge("engine.queue_depth")
    assert len(depth) == len(sampler.times)
    assert max(depth) > 0


def test_chrome_counter_events():
    runtime, sampler = _sampled()
    events = sampler.to_chrome_counters(
        cluster_pid=runtime.config.num_nodes)
    assert events
    assert all(ev["ph"] == "C" for ev in events)


def test_timeseries_panel_renders():
    _, sampler = _sampled()
    times, rates = sampler.rates()
    panel = timeseries_panel("activity", times, rates)
    assert "page_faults" in panel
    assert "peak" in panel
