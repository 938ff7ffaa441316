"""Committed fingerprint of a run with every observer attached.

``repro report`` attaches a flight recorder, an op tracer, a time-series
sampler (500 us) and a stall watchdog (20 000 us horizon) before it
runs. All four read the hook stream and schedule nothing, so an
observed run executes the same events and ends at the same simulated
time as an unobserved one; each case asserts that. This file pins what
the observers record and how often they were called, plus the run's
event count and simulated end time, for a model-check scenario with
two recoveries and an application run. A change to the simulation
kernel that claims to leave observed behaviour alone must leave these
digests alone, under both the pure and the compiled build.
Re-record on purpose with::

    PYTHONPATH=src python tests/obs/test_observed_fingerprint.py
"""

import hashlib
import pprint

import pytest

from repro.harness import build_app
from repro.obs import (
    FlightRecorder,
    OpTracer,
    StallWatchdog,
    TimeSeriesSampler,
    instrumentation,
)
from repro.verify.replay import ReplayScenario, build_runtime

CASES = {
    "replay/145/1/533/2": lambda: build_runtime(
        ReplayScenario(145, 1, 533, 2)),
    "FFT/ft/1": lambda: build_app("FFT", "ft", 1, scale="test"),
}


def fingerprint(make_runtime):
    runtime = make_runtime()
    instrumentation.reset()
    recorder = FlightRecorder(runtime)
    tracer = OpTracer(runtime)
    sampler = TimeSeriesSampler(runtime, period_us=500.0)
    watchdog = StallWatchdog(runtime, horizon_us=20_000.0,
                             recorder=recorder)
    sampler.start()
    watchdog.start()
    result = runtime.run()
    calls = instrumentation.snapshot()
    for observer in (recorder, tracer, sampler, watchdog):
        observer.detach()
    series = hashlib.sha256(repr(sampler.times).encode())
    for name in sorted(sampler.series):
        series.update(repr((name, sampler.series[name])).encode())
    return {"series_sha256": series.hexdigest(),
            "recorder": recorder.digest(),
            "optrace": tracer.digest(),
            "sampler_calls": calls["sampler"],
            "watchdog_calls": calls["watchdog"],
            "events_executed": runtime.engine.events_executed,
            "elapsed_us": result.elapsed_us}


GOLDEN = {'FFT/ft/1': {'series_sha256': 'a93903db7953b7a782e86336e9de56416e1bc4d89ec41df7aaf43be670f66adf',
              'recorder': '47b32ca31b94cc64066e9b6febf178e0352213aac43c0141c19833bcaf7b82ac',
              'optrace': '317809427b6a5043ec65442c14a22119e6b43213790c677f10dd0a1177db6bc4',
              'sampler_calls': 13,
              'watchdog_calls': 3176,
              'events_executed': 20789,
              'elapsed_us': 5825.867249999958},
 'replay/145/1/533/2': {'series_sha256': 'd06a21916ccada5d9e0b7295bbb92b579a40217391f3e81463a4dcdbc431a957',
                        'recorder': 'df466545735a9889a1c90db7d65be41511c462f2a724182e26c67bf301757901',
                        'optrace': 'af1650272cff65ea2e8a6b5a74e9fbeb439680fec692532adfd66693bda0c4cb',
                        'sampler_calls': 6,
                        'watchdog_calls': 613,
                        'events_executed': 3443,
                        'elapsed_us': 4212.307520762189}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_observed_fingerprint(case):
    observed = fingerprint(CASES[case])
    assert observed == GOLDEN[case]
    runtime = CASES[case]()
    plain = runtime.run()
    assert (observed["elapsed_us"], observed["events_executed"]) == \
        (plain.elapsed_us, runtime.engine.events_executed)


if __name__ == "__main__":
    print("GOLDEN = " + pprint.pformat(
        {case: fingerprint(CASES[case]) for case in sorted(CASES)},
        width=76, sort_dicts=False))
