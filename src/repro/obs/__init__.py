"""Observability: flight recorder, time-series sampler, stall watchdog.

All components are strictly opt-in: nothing in this package is imported
or attached by the simulator unless a caller (the ``repro report``
command or a test) asks for it -- no environment variable attaches
one -- and the hook bus early-returns when no subscriber is
registered -- so a run with observability off executes zero recorder,
sampler or watchdog code. :mod:`repro.obs.instrumentation` counts every
obs-code invocation precisely so tests can prove that claim.

Components::

    from repro.obs import FlightRecorder, TimeSeriesSampler, StallWatchdog

    runtime = SvmRuntime(config, workload)
    rec = FlightRecorder(runtime)
    sampler = TimeSeriesSampler(runtime, period_us=500.0)
    dog = StallWatchdog(runtime, horizon_us=20_000.0, recorder=rec)
    sampler.start(); dog.start()
    runtime.run()
    sampler.detach(); dog.detach()  # fill the grid to the end; last stall check
    rec.export("trace.json", counters=sampler.to_chrome_counters(rec.cluster_pid))

The exported trace is Chrome/Perfetto JSON (open it at
https://ui.perfetto.dev); timestamps are simulated microseconds.
"""

from repro.obs.optrace import OpTracer
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SloSpec, evaluate_slo, format_slo_report
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.watchdog import StallWatchdog, build_waitfor, format_waitfor

__all__ = [
    "FlightRecorder",
    "OpTracer",
    "SloSpec",
    "TimeSeriesSampler",
    "StallWatchdog",
    "build_waitfor",
    "evaluate_slo",
    "format_slo_report",
    "format_waitfor",
]
