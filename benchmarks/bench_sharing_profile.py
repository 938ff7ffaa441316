"""Sharing profiles of the application suite.

The paper's per-application analysis (section 5.3) is implicitly a
sharing-pattern argument: FFT/LU write owner-private pages, Water's
force arrays migrate under locks, Radix's destination array is written
by everyone. This bench makes those classifications explicit with the
page profiler, giving each application a sharing fingerprint.
"""

import pytest

from benchmarks.conftest import run_once, save_result
from repro.harness.experiments import APP_ORDER, build_app
from repro.metrics import SharingProfiler

KINDS = ("private", "read_shared", "migratory", "false_shared",
         "untouched")


def _profiles():
    rows = [f"{'app':12s}" + "".join(f"{k:>14s}" for k in KINDS)]
    rows.append("-" * len(rows[0]))
    out = {}
    for app in APP_ORDER:
        runtime = build_app(app, "ft")
        profiler = SharingProfiler(runtime)
        runtime.run()
        summary = profiler.summary()
        rows.append(f"{app:12s}" + "".join(
            f"{summary.get(k, 0):14d}" for k in KINDS))
        out[app] = summary
    return out, "\n".join(rows)


@pytest.mark.benchmark(group="sharing")
def test_sharing_profiles(benchmark):
    data, text = run_once(benchmark, _profiles)
    save_result("sharing_profiles", text)
    benchmark.extra_info["profiles"] = data

    def count(app, kind):
        return data[app].get(kind, 0)

    # FFT and LU: no multi-writer pages at all (owner computes).
    for app in ("FFT", "LU"):
        assert count(app, "migratory") + count(app, "false_shared") == 0
    # The Water codes have multi-writer force pages.
    assert count("WaterNsq", "migratory") \
        + count("WaterNsq", "false_shared") > 0
    # Radix's histogram rows are written by every thread.
    assert count("RadixLocal", "migratory") \
        + count("RadixLocal", "false_shared") > 0
