"""Worker-side execution of run specs.

``execute_payload`` is the function the pool pickles into workers: it
looks up the spec's runner and converts every outcome -- success or
simulation error -- into a plain dict, so a bad spec never takes the
worker (or the sweep) down with it. A runner's result is a function of
its spec's params alone: the simulator draws only from its own seeded
``random.Random`` instances, so serial and pooled runs agree without
any per-worker seeding.

Runners registered here:

* ``app`` -- one cell of the paper's evaluation matrix (an application
  under one protocol variant), summarized with breakdowns, aggregate
  counters and a sha256 checksum of the final shared memory;
* ``model_check`` -- one fault-injection model-check case (the seed
  sweep's unit of work), run and judged by
  :func:`repro.verify.replay.run_case`: its ``status`` is that
  verdict (``clean`` / ``hang`` / ``mismatch``), or ``invariant`` for
  a clean run with checker findings.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from typing import Any, Callable, Dict

from repro.parallel.spec import RunSpec


def _data_checksum(runtime) -> str:
    """sha256 over the authoritative (home) copy of every segment.

    Read through ``debug_read`` so base and extended protocols are
    checksummed through the same access path the verifier uses.
    """
    space = runtime.cluster.address_space
    segments = space.segments()
    h = hashlib.sha256()
    for name in sorted(segments):
        seg = segments[name]
        h.update(name.encode())
        h.update(runtime.debug_read(seg.base_addr, seg.size_bytes))
    return h.hexdigest()


def _run_app(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.harness.experiments import build_app
    from repro.parallel.summary import RunSummary

    params = dict(params)
    verify = params.pop("verify", True)
    runtime = build_app(**params)
    return RunSummary.from_run_result(
        runtime.run(verify), data_checksum=_data_checksum(runtime)).to_dict()


def _run_model_check(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.verify.replay import ReplayScenario, build_runtime, run_case

    # from_dict keeps the scenario's fields and ignores max_sim_us.
    runtime = build_runtime(ReplayScenario.from_dict(params))
    run = run_case(runtime, params["max_sim_us"])
    if run.result is None:
        return {"status": run.outcome, "detail": run.error,
                "elapsed_us": runtime.engine.now}
    result = run.result
    return {"status": "invariant" if run.findings else run.outcome,
            "detail": "; ".join(str(f) for f in run.findings[:3]),
            "elapsed_us": result.elapsed_us,
            "recoveries": result.recoveries,
            "exposed_window_us": result.exposed_window_us,
            "data_checksum": _data_checksum(runtime)}


RUNNERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "app": _run_app,
    "model_check": _run_model_check,
}


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one spec; never raises (every outcome becomes a dict).

    ``payload`` carries the spec dict; the same function serves the
    in-process ``--jobs 1`` path and the worker processes, so serial
    and parallel runs execute identical code.
    """
    spec = RunSpec.from_dict(payload["spec"])
    started = time.perf_counter()
    runner = RUNNERS.get(spec.kind)
    if runner is None:
        return {"status": "error", "summary": None,
                "error": f"unknown runner {spec.kind!r}",
                "wall_s": 0.0}
    try:
        summary = runner(spec.params)
        return {"status": "ok", "summary": summary, "error": "",
                "wall_s": time.perf_counter() - started}
    except Exception:  # noqa: BLE001 -- isolate the failing spec
        return {"status": "error", "summary": None,
                "error": traceback.format_exc(limit=20),
                "wall_s": time.perf_counter() - started}
