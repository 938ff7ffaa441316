"""Parallel-orchestrator benchmark.

Runs one figure-style matrix (apps x variants at ``test`` scale) three
ways -- serial (``--jobs 1``), parallel (``--jobs 4``), and from a warm
content-addressed cache -- and records wall-clock plus bit-identity
checks in ``results/BENCH_parallel.json``.

Two honesty rules:

* every run records ``cpus`` (``os.cpu_count()``), and a pool of more
  workers than cores measures the scheduler, not the orchestrator: the
  speedup is then recorded as ``null`` -- *unmeasured* -- and the
  >= 3x acceptance gate (4 workers) does not apply;
* bit-identity is asserted unconditionally: serial, parallel and
  cached summaries (counters, breakdowns, data checksums) must be
  byte-for-byte equal, whatever the machine.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_parallel.py``)
or as a pytest smoke test (``-k parallel_smoke``) with a reduced
matrix.
"""

import json
import os
import tempfile
import time

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.parallel import app_spec, run_specs

#: Full matrix: every paper app, both protocol variants, test scale.
FULL_APPS = ("FFT", "LU", "WaterNsq", "WaterSpFL", "RadixLocal",
             "Volrend")
#: Reduced matrix for the pytest / CI smoke run.
QUICK_APPS = ("FFT", "LU")

PARALLEL_JOBS = 4


def _matrix(apps):
    return [app_spec(app, variant, scale="test")
            for variant in ("base", "ft") for app in apps]


def _timed_run(specs, jobs, cache, cache_dir):
    t0 = time.perf_counter()
    results = run_specs(specs, jobs=jobs, cache=cache,
                        cache_dir=cache_dir)
    wall = time.perf_counter() - t0
    bad = [r for r in results if not r.ok]
    assert not bad, [f"{r.spec.label}: {r.status}" for r in bad]
    return wall, results


def run_all(apps=FULL_APPS, jobs=PARALLEL_JOBS) -> dict:
    specs = _matrix(apps)
    cpus = os.cpu_count() or 1

    serial_wall, serial = _timed_run(specs, jobs=1, cache=False,
                                     cache_dir=None)
    parallel_wall, parallel = _timed_run(specs, jobs=jobs, cache=False,
                                         cache_dir=None)

    with tempfile.TemporaryDirectory() as cache_dir:
        warm_wall, warm = _timed_run(specs, jobs=1, cache=True,
                                     cache_dir=cache_dir)
        cached_wall, cached = _timed_run(specs, jobs=1, cache=True,
                                         cache_dir=cache_dir)

    summaries = [r.summary for r in serial]
    identical = (summaries == [r.summary for r in parallel]
                 and summaries == [r.summary for r in warm]
                 and summaries == [r.summary for r in cached])
    checksums_identical = (
        [r.summary["data_checksum"] for r in serial]
        == [r.summary["data_checksum"] for r in parallel]
        == [r.summary["data_checksum"] for r in cached])

    return {
        "cpus": cpus,
        "jobs": jobs,
        "cells": len(specs),
        "apps": list(apps),
        "serial_wall_s": round(serial_wall, 3),
        "parallel_wall_s": round(parallel_wall, 3),
        # Fewer cores than workers: unmeasured, not a number.
        "parallel_speedup": (round(serial_wall / parallel_wall, 2)
                             if cpus >= jobs else None),
        "cache_cold_wall_s": round(warm_wall, 3),
        "cache_hit_wall_s": round(cached_wall, 3),
        "cache_hit_speedup": round(serial_wall / max(cached_wall, 1e-9),
                                   1),
        "cache_hits": sum(r.cached for r in cached),
        "bit_identical": identical,
        "checksums_identical": checksums_identical,
    }


def check(results: dict) -> None:
    """The acceptance assertions; shared by smoke test and __main__."""
    assert results["bit_identical"], \
        "serial / parallel / cached summaries diverged"
    assert results["checksums_identical"], \
        "shared-memory checksums diverged between execution modes"
    assert results["cache_hits"] == results["cells"], results
    # A warm cache must make re-running the matrix essentially free.
    assert results["cache_hit_wall_s"] < results["serial_wall_s"] / 10, \
        results
    # The >= 3x gate is for 4 workers with a core each; the jobs=2 CI
    # smoke and an unmeasured (null) speedup assert bit-identity only.
    speedup = results["parallel_speedup"]
    if speedup is not None and results["jobs"] >= 4:
        assert speedup >= 3.0, results


def save(results: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_parallel.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


@pytest.mark.benchmark(group="parallel")
def test_parallel_smoke(benchmark):
    results = benchmark.pedantic(
        lambda: run_all(apps=QUICK_APPS, jobs=2), rounds=1, iterations=1)
    check(results)
    save(results)


if __name__ == "__main__":
    out = run_all()
    print(json.dumps(out, indent=2, sort_keys=True))
    check(out)
    save(out)
