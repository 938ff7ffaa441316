"""Section 6's open question: the approach on server applications.

"It is interesting to investigate how well our approach can perform in
a broader application domain that includes server and other
non-scientific applications." -- this bench answers it with the
KVStore transaction workload: random-access, lock-dominated, zero
owner-computes locality, compared against the SPLASH suite's extremes.
"""

import pytest

from benchmarks.conftest import run_once, save_result
from repro.apps import KVStore
from repro.harness.experiments import evaluation_config, run_app
from repro.harness.runner import SvmRuntime


def _run_kv(variant, threads_per_node=1):
    config = evaluation_config(variant, threads_per_node)
    workload = KVStore(buckets=64, txns_per_thread=10)
    return SvmRuntime(config, workload).run()


def _server_table():
    rows = [f"{'workload':14s} {'base_us':>10s} {'ft_us':>10s} "
            f"{'overhead':>9s} {'home_frac':>10s} "
            f"{'lw_p50':>7s} {'lw_p99':>7s} {'lw_p999':>8s}",
            "-" * 79]
    out = {}
    kv_base = _run_kv("base")
    kv_ft = _run_kv("ft")
    cases = {"KVStore": (kv_base, kv_ft)}
    for app in ("FFT", "WaterNsq"):
        cases[app] = (run_app(app, "base", scale="bench"),
                      run_app(app, "ft", scale="bench"))
    for name, (base, ft) in cases.items():
        overhead = (ft.elapsed_us / base.elapsed_us - 1) * 100
        # Tail view of FT lock waits from the deterministic log2
        # histograms (the same pipeline the SLO evaluator reads), not
        # ad-hoc means: the transactional workload's viability question
        # is about the tail, where two-phase commits queue behind locks.
        pct = ft.latency.histogram("lock_acquire").percentiles()
        rows.append(f"{name:14s} {base.elapsed_us:10.0f} "
                    f"{ft.elapsed_us:10.0f} {overhead:8.1f}% "
                    f"{ft.counters.home_diff_fraction:10.2f} "
                    f"{pct['p50']:7.0f} {pct['p99']:7.0f} "
                    f"{pct['p999']:8.0f}")
        out[name] = {"overhead": overhead,
                     "home_frac": ft.counters.home_diff_fraction,
                     "lock_p50_us": pct["p50"],
                     "lock_p99_us": pct["p99"],
                     "lock_p999_us": pct["p999"]}
    return out, "\n".join(rows)


@pytest.mark.benchmark(group="server")
def test_server_workload(benchmark):
    data, text = run_once(benchmark, _server_table)
    save_result("server_workload", text)
    benchmark.extra_info["results"] = {
        k: {kk: round(vv, 2) for kk, vv in v.items()}
        for k, v in data.items()}

    kv = data["KVStore"]
    # The transactional workload is viable under the extended protocol
    # (overhead within the paper's observed band)...
    assert 0 < kv["overhead"] < 120
    # ...with no owner-computes locality (unlike FFT's 100%).
    assert kv["home_frac"] < data["FFT"]["home_frac"]
    # The histogram tail is well-formed: quantiles are monotone and the
    # lock-dominated workload has a real (nonzero) wait distribution.
    assert 0 < kv["lock_p50_us"] <= kv["lock_p99_us"] <= kv["lock_p999_us"]
