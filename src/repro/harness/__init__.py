"""Experiment harness: runtime, paper configurations, figures."""

from repro.harness.experiments import (
    APP_ORDER,
    build_app,
    evaluation_config,
    run_app,
    run_suite,
    workload_factories,
)
from repro.harness.runner import RunResult, SvmRuntime, ThreadRecord

__all__ = [
    "SvmRuntime",
    "RunResult",
    "ThreadRecord",
    "build_app",
    "run_app",
    "run_suite",
    "workload_factories",
    "evaluation_config",
    "APP_ORDER",
]
