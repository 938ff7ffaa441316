"""Parallel experiment orchestration with content-addressed caching.

The paper's evaluation is a matrix of *independent* simulations; this
package runs such matrices concurrently over a process pool and never
re-runs a cell whose inputs have not changed:

* :mod:`repro.parallel.spec` -- picklable, canonicalizable run specs;
* :mod:`repro.parallel.runners` -- worker-side spec execution
  (application runs and model-check replays) producing JSON summaries;
* :mod:`repro.parallel.summary` -- :class:`RunSummary`, the JSON form
  of a ``RunResult`` that restores the real ``Breakdown`` /
  ``RunCounters`` / ``MetricsRegistry``;
* :mod:`repro.parallel.cache` -- the content-addressed result cache
  (spec hash x code fingerprint -> JSON under ``results/cache/``);
* :mod:`repro.parallel.pool` -- the orchestrator: fan-out over
  ``ProcessPoolExecutor``, progress streaming, failure isolation with
  bounded retry, ``REPRO_JOBS``/``--jobs`` control.
"""

from repro.parallel.cache import ResultCache, code_fingerprint, spec_key
from repro.parallel.pool import SpecResult, resolve_jobs, run_specs
from repro.parallel.spec import RunSpec, app_spec, model_check_spec
from repro.parallel.summary import RunSummary

__all__ = [
    "ResultCache",
    "RunSpec",
    "RunSummary",
    "SpecResult",
    "app_spec",
    "code_fingerprint",
    "model_check_spec",
    "resolve_jobs",
    "run_specs",
    "spec_key",
]
