"""The orchestrator invariants the ISSUE pins down:

* results are deterministic and independent of ``--jobs``;
* cache hits return bit-identical summaries and invalidate on both
  configuration changes and code-fingerprint changes;
* one failing / crashing / timing-out spec never takes down the sweep.
"""

import os
import time

import pytest

import repro.parallel.pool as pool_mod
from repro.harness.experiments import run_matrix
from repro.parallel import (
    RunSpec,
    app_spec,
    model_check_spec,
    resolve_jobs,
    run_specs,
)
from repro.parallel.runners import RUNNERS

# The regression scenarios test_random_model_check pins -- reused here
# so the orchestrator is exercised on the exact seed enumeration the
# fault-injection sweep covers.
MC_SEEDS = [(145, 1, 533, 1), (145, 1, 610, 1), (145, 1, 480, 2)]


def mc_specs():
    return [model_check_spec(ps, cs, plan, fails)
            for ps, cs, plan, fails in MC_SEEDS]


# -- test-only runners (fork workers inherit this registry) -------------

def _t_ok(params):
    return {"value": params["x"] * 2}


def _t_error(params):
    raise ValueError(f"poisoned spec {params['x']}")


def _t_crash(params):
    os._exit(13)


def _t_sleep(params):
    time.sleep(params["seconds"])
    return {"slept": params["seconds"]}


@pytest.fixture
def test_runners():
    RUNNERS.update({"_t_ok": _t_ok, "_t_error": _t_error,
                    "_t_crash": _t_crash, "_t_sleep": _t_sleep})
    yield
    for kind in ("_t_ok", "_t_error", "_t_crash", "_t_sleep"):
        RUNNERS.pop(kind, None)


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs() == 7

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestDeterminism:
    def test_results_independent_of_jobs(self):
        """Serial and pooled runs produce bit-identical summaries."""
        specs = mc_specs()
        serial = run_specs(specs, jobs=1, cache=False)
        pooled = run_specs(specs, jobs=2, cache=False)
        assert [r.status for r in serial] == ["ok"] * len(specs)
        assert [r.summary for r in serial] == [r.summary for r in pooled]

    def test_app_summary_identical_serial_vs_pool(self):
        specs = [app_spec("FFT", v, scale="test") for v in ("base", "ft")]
        serial = run_specs(specs, jobs=1, cache=False)
        pooled = run_specs(specs, jobs=2, cache=False)
        for s, p in zip(serial, pooled):
            assert s.ok and p.ok
            assert s.summary == p.summary
            assert s.summary["data_checksum"] == p.summary["data_checksum"]

    def test_results_come_back_in_spec_order(self, test_runners):
        specs = [RunSpec("_t_ok", {"x": i}) for i in range(8)]
        results = run_specs(specs, jobs=2, cache=False)
        assert [r.spec.params["x"] for r in results] == list(range(8))
        assert [r.summary["value"] for r in results] == [
            2 * i for i in range(8)]


class TestCacheBehaviour:
    def test_hit_after_miss_is_bit_identical(self, tmp_path):
        specs = mc_specs()
        fresh = run_specs(specs, jobs=1, cache_dir=tmp_path)
        again = run_specs(specs, jobs=1, cache_dir=tmp_path)
        assert all(not r.cached for r in fresh)
        assert all(r.cached for r in again)
        assert [r.summary for r in fresh] == [r.summary for r in again]
        assert [r.key for r in fresh] == [r.key for r in again]

    def test_config_change_misses(self, tmp_path):
        run_specs([model_check_spec(145, 1, 533, 1)], jobs=1,
                  cache_dir=tmp_path)
        changed = run_specs([model_check_spec(145, 1, 534, 1)], jobs=1,
                            cache_dir=tmp_path)
        assert not changed[0].cached

    def test_code_fingerprint_change_invalidates(self, tmp_path,
                                                 monkeypatch):
        specs = [model_check_spec(145, 1, 533, 1)]
        monkeypatch.setattr(pool_mod, "code_fingerprint", lambda: "fp_a")
        first = run_specs(specs, jobs=1, cache_dir=tmp_path)
        hit = run_specs(specs, jobs=1, cache_dir=tmp_path)
        monkeypatch.setattr(pool_mod, "code_fingerprint", lambda: "fp_b")
        after_edit = run_specs(specs, jobs=1, cache_dir=tmp_path)
        assert not first[0].cached
        assert hit[0].cached
        assert not after_edit[0].cached
        assert after_edit[0].summary == first[0].summary

    def test_no_cache_never_reads_or_writes(self, tmp_path):
        specs = [model_check_spec(145, 1, 533, 1)]
        run_specs(specs, jobs=1, cache=False, cache_dir=tmp_path)
        assert not list(tmp_path.rglob("*.json"))

    def test_failures_are_not_cached(self, tmp_path, test_runners):
        specs = [RunSpec("_t_error", {"x": 1})]
        run_specs(specs, jobs=1, cache_dir=tmp_path)
        assert not list(tmp_path.rglob("*.json"))
        rerun = run_specs(specs, jobs=1, cache_dir=tmp_path)
        assert rerun[0].status == "error" and not rerun[0].cached


class TestFailureIsolation:
    def test_error_spec_does_not_stop_the_sweep(self, test_runners):
        specs = [RunSpec("_t_ok", {"x": 1}),
                 RunSpec("_t_error", {"x": 2}),
                 RunSpec("_t_ok", {"x": 3})]
        results = run_specs(specs, jobs=2, cache=False)
        assert [r.status for r in results] == ["ok", "error", "ok"]
        assert "poisoned spec 2" in results[1].error
        # Deterministic errors are not retried.
        assert results[1].attempts == 1

    def test_worker_crash_is_isolated_and_retried(self, test_runners):
        specs = [RunSpec("_t_ok", {"x": i}) for i in range(4)]
        specs.insert(2, RunSpec("_t_crash", {}))
        results = run_specs(specs, jobs=2, cache=False, retries=1)
        crash = results[2]
        assert crash.status == "crashed"
        assert crash.attempts == 2  # first run + one retry
        oks = results[:2] + results[3:]
        assert [r.status for r in oks] == ["ok"] * 4
        assert [r.summary["value"] for r in oks] == [0, 2, 4, 6]

    def test_crash_is_charged_to_the_spec_that_crashed(self, test_runners):
        # Slow neighbours are in flight both times the crasher takes a
        # worker down. A pool break says nothing about which spec did
        # it: they must not be charged its attempts.
        specs = [RunSpec("_t_sleep", {"seconds": 0.3, "n": i})
                 for i in range(4)]
        specs.insert(1, RunSpec("_t_crash", {}))
        results = run_specs(specs, jobs=3, cache=False, retries=1)
        assert [r.status for r in results] == [
            "ok", "crashed", "ok", "ok", "ok"]
        assert results[1].attempts == 2
        # Never started before the break: run once, on the next pool.
        assert [r.attempts for r in results[3:]] == [1, 1]

    def test_timeout_marks_spec_and_bounded_retry(self, test_runners):
        specs = [RunSpec("_t_sleep", {"seconds": 30}),
                 RunSpec("_t_ok", {"x": 5})]
        results = run_specs(specs, jobs=2, cache=False, retries=1,
                            timeout_s=0.2)
        assert results[0].status == "timeout"
        assert results[0].attempts == 2
        assert results[1].ok and results[1].summary["value"] == 10

    def test_timeout_in_process_path(self, test_runners):
        results = run_specs([RunSpec("_t_sleep", {"seconds": 30})],
                            jobs=1, cache=False, retries=0,
                            timeout_s=0.2)
        assert results[0].status == "timeout"
        assert results[0].attempts == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Engine.run(until=...) fast-forwards `now` to "
                          "the cap when the event list drains, so a "
                          "capped run reports its budget as its time; "
                          "the fix moves the benchmark's sim_elapsed_us "
                          "and has its own issue")
def test_capped_run_reports_its_own_elapsed_time():
    free, capped = (
        run_specs([model_check_spec(145, 1, 434, 0, max_sim_us=cap)],
                  jobs=1, cache=False)[0].summary["elapsed_us"]
        for cap in (None, 200_000.0))
    assert free < 2_000.0  # the run itself: 1553.8 us
    assert capped == free  # today: 199852.7, the cap


class TestRunMatrix:
    def test_returns_summaries_in_order(self, tmp_path):
        specs = [app_spec("FFT", v, scale="test") for v in ("base", "ft")]
        summaries = run_matrix(specs, jobs=1, cache_dir=tmp_path)
        assert summaries[0].elapsed_us > 0
        assert summaries[0].counters.total.page_faults > 0
        assert summaries[0].breakdown.four_component()
        # ft runs checkpoint; base must not.
        assert summaries[1].counters.total.checkpoints > 0
        assert summaries[0].counters.total.checkpoints == 0

    def test_raises_on_failed_cell(self, test_runners):
        with pytest.raises(RuntimeError, match="matrix cells failed"):
            run_matrix([RunSpec("_t_error", {"x": 9})], jobs=1,
                       cache=False)
