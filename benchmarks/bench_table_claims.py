"""Section 5.3's in-text quantitative claims, as one table.

The paper backs its per-application analysis with counters rather than
a numbered table; this bench regenerates them side by side:

* share of diffed pages that are the writer's own home pages
  (paper: FFT/LU ~all, WaterSpatialFL >99%, WaterNsq ~25%, Radix ~12%);
* checkpoint counts (paper: WaterNsq 10 277 at 1 thread, 18 362 at 2;
  others 4-311) and mean checkpoint size (paper: 2-2.8 KB stacks);
* lock acquires (paper: WaterNsq uses 4105 locks at high frequency,
  WaterSpatialFL 518, Radix 66);
* page-fault counts and the extended protocol's extra local fetches.
"""

import pytest

from benchmarks.conftest import run_once, save_result
from repro.harness.experiments import APP_ORDER, run_suite


def _latency_table(base, extended):
    """Average operation latencies, base vs extended -- the paper's
    'average lock wait time presents more than a two-fold increase'
    (Water-Nsquared) and 'the average wait time per page increases'."""
    rows = [f"{'app':12s} {'lockwait_0':>11s} {'lockwait_1':>11s} "
            f"{'x':>6s} {'fault_0':>9s} {'fault_1':>9s} {'x':>6s}",
            "-" * 70]
    stats = {}
    for app in APP_ORDER:
        b_lock = base[app].latency.histogram("lock_acquire")
        e_lock = extended[app].latency.histogram("lock_acquire")
        b_fault = base[app].latency.histogram("page_fault")
        e_fault = extended[app].latency.histogram("page_fault")
        lock_x = (e_lock.mean_us / b_lock.mean_us
                  if b_lock.mean_us else float("nan"))
        fault_x = (e_fault.mean_us / b_fault.mean_us
                   if b_fault.mean_us else float("nan"))
        rows.append(f"{app:12s} {b_lock.mean_us:11.1f} "
                    f"{e_lock.mean_us:11.1f} {lock_x:6.2f} "
                    f"{b_fault.mean_us:9.1f} {e_fault.mean_us:9.1f} "
                    f"{fault_x:6.2f}")
        stats[app] = {"lock_x": lock_x, "fault_x": fault_x}
    return stats, "\n".join(rows)


def _claims_table():
    extended = run_suite("ft", threads_per_node=1, scale="bench")
    rows = []
    header = (f"{'app':12s} {'pages_diffed':>12s} {'home_frac':>10s} "
              f"{'lock_acqs':>10s} {'releases':>9s} {'ckpts':>7s} "
              f"{'ckpt_B':>7s} {'faults':>8s} {'local_fetch':>12s}")
    rows.append(header)
    rows.append("-" * len(header))
    stats = {}
    for app in APP_ORDER:
        t = extended[app].counters.total
        frac = extended[app].counters.home_diff_fraction
        mean_ckpt = extended[app].counters.mean_checkpoint_bytes
        rows.append(
            f"{app:12s} {t.pages_diffed:12d} {frac:10.2f} "
            f"{t.lock_acquires:10d} {t.releases:9d} {t.checkpoints:7d} "
            f"{mean_ckpt:7.0f} {t.page_faults:8d} "
            f"{t.local_page_fetches:12d}")
        stats[app] = {"home_frac": frac, "checkpoints": t.checkpoints,
                      "lock_acquires": t.lock_acquires}
    return stats, "\n".join(rows)


@pytest.mark.benchmark(group="claims")
def test_section53_claims(benchmark):
    stats, text = run_once(benchmark, _claims_table)
    save_result("table_section53_claims", text)
    benchmark.extra_info["stats"] = stats

    # Orderings the paper reports:
    # home-page-diff share: owner-computes apps at the top, Radix at
    # the bottom.
    assert stats["FFT"]["home_frac"] == pytest.approx(1.0)
    assert stats["LU"]["home_frac"] == pytest.approx(1.0)
    assert stats["RadixLocal"]["home_frac"] < \
        stats["WaterSpFL"]["home_frac"]
    assert stats["RadixLocal"]["home_frac"] < \
        stats["WaterNsq"]["home_frac"]
    # Checkpoint counts follow release frequency: WaterNsq far ahead.
    assert stats["WaterNsq"]["checkpoints"] == max(
        s["checkpoints"] for s in stats.values())
    # Lock usage ordering: WaterNsq > WaterSpFL; FFT and LU lock-free.
    assert stats["WaterNsq"]["lock_acquires"] > \
        stats["WaterSpFL"]["lock_acquires"]
    assert stats["FFT"]["lock_acquires"] == 0
    assert stats["LU"]["lock_acquires"] == 0


@pytest.mark.benchmark(group="claims")
def test_section53_latency_claims(benchmark):
    def both():
        base = run_suite("base", threads_per_node=1, scale="bench")
        extended = run_suite("ft", threads_per_node=1, scale="bench")
        return _latency_table(base, extended)

    stats, text = run_once(benchmark, both)
    save_result("table_latency_claims", text)
    benchmark.extra_info["ratios"] = {
        app: {k: round(v, 2) for k, v in row.items()}
        for app, row in stats.items()}
    # The paper: lock wait grows under the extended protocol (the lock
    # hand-over now waits for point B; lock state is replicated). Their
    # testbed saw >2x for WaterNsq; our model reproduces the direction
    # for every lock-using app (~1.1-1.4x at simulation scale -- the
    # gap is the NIC-load amplification discussed in EXPERIMENTS.md).
    import math
    for app, row in stats.items():
        if not math.isnan(row["lock_x"]):
            assert row["lock_x"] > 1.0, f"{app} lock wait did not grow"
    # Average data wait per fault increases under the extended
    # protocol for every app that faults (fetches wait for committed
    # copies updated last; home pages add local fetches).
    import math
    for app, row in stats.items():
        if not math.isnan(row["fault_x"]):
            assert row["fault_x"] > 0.95, f"{app} fault latency shrank"
