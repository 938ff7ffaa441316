"""Diff-engine micro-benchmark and the machine-speed calibration.

Times diff compute (vectorized vs. the retained byte-loop reference, on
sparse / dense / fragmented / clean pages) and diff apply, and records
the results in ``results/BENCH_hotpaths.json``. Host time of whole runs
-- faults, lock handoffs, application cells -- is measured end to end
by ``benchmarks/e2e``, which also reuses :func:`bench_calibration`.

Runs standalone (``PYTHONPATH=src:. python benchmarks/bench_hotpaths.py``)
or as a pytest smoke test (``-k hotpaths``); the smoke test uses
reduced repeat counts but asserts the headline speedups hold.

The JSON keeps the two kernel builds apart: the top-level figures are
always from the **pure-Python reference** build, and an
``accelerated`` sub-key holds the same figures measured with the
compiled :mod:`repro.sim._ccore` live. A run merges into the existing
file under its own key and leaves the other build's figures alone, so
regenerating both is two runs::

    REPRO_PURE=1 PYTHONPATH=src:. python benchmarks/bench_hotpaths.py
    PYTHONPATH=src:. python benchmarks/bench_hotpaths.py
"""

import json
import random
import time

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.sim import ACCELERATED
from repro.memory.diff import (
    apply_diff,
    compute_diff,
    compute_diff_reference,
)

PAGE_SIZE = 4096


# -- workload pages ----------------------------------------------------------

def _make_pages(seed: int = 7):
    """Twin/current pairs exercising the four diff regimes."""
    rng = random.Random(seed)
    twin = bytes(rng.randrange(256) for _ in range(PAGE_SIZE))

    sparse = bytearray(twin)          # a few scattered runs
    for start in (100, 900, 2048, 3900):
        for i in range(start, start + 24):
            sparse[i] ^= 0xFF

    # Write-mostly page: ~60% of bytes changed at random, so changed
    # runs coalesce under the default merge gap -- the regime the
    # paper's diff-cost analysis attributes most traffic to.
    dense = bytearray(twin)
    drng = random.Random(seed + 4)
    for i in range(PAGE_SIZE):
        if drng.random() < 0.6:
            dense[i] = (dense[i] + 1) & 0xFF

    # Worst case for run-based diffing: 16 changed bytes every 32,
    # with gaps exactly at the merge threshold so nothing coalesces
    # (128 separate runs). Reported but not an acceptance gate.
    fragmented = bytearray(twin)
    for start in range(0, PAGE_SIZE, 32):
        for i in range(start, start + 16):
            fragmented[i] ^= 0xA5

    clean = bytearray(twin)           # nothing changed

    return twin, {"sparse": bytes(sparse), "dense": bytes(dense),
                  "fragmented": bytes(fragmented), "clean": bytes(clean)}


def _time_per_call(fn, repeats: int, number: int) -> float:
    """Best-of-``repeats`` mean microseconds per call."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed / number)
    return best * 1e6


def bench_calibration() -> float:
    """Machine-speed proxy in microseconds: a fixed, deterministic mix
    of interpreter work (loop + arithmetic + bytes slicing) resembling
    the simulator's host profile. Recorded with every run so absolute
    host-time figures can be read across machines; ``benchmarks/e2e``
    samples it between cells to speed-normalise its host clocks."""
    rng = random.Random(123)
    data = bytes(rng.randrange(256) for _ in range(PAGE_SIZE))

    def spin():
        acc = 0
        buf = bytearray(data)
        for i in range(0, PAGE_SIZE, 16):
            acc += buf[i]
            buf[i] = (buf[i] + 1) & 0xFF
        buf[256:512] = data[512:768]
        return acc + len(bytes(buf[:128]))

    return round(_time_per_call(spin, 5, 200), 2)


# -- sections ----------------------------------------------------------------

def bench_diff_engine(repeats: int = 5, number: int = 50) -> dict:
    twin, pages = _make_pages()
    out = {}
    for kind, current in pages.items():
        vec = _time_per_call(
            lambda c=current: compute_diff(0, twin, c), repeats, number)
        ref = _time_per_call(
            lambda c=current: compute_diff_reference(0, twin, c),
            repeats, number)
        out[kind] = {"vectorized_us": round(vec, 2),
                     "reference_us": round(ref, 2),
                     "speedup": round(ref / vec, 2)}

    diff = compute_diff(0, twin, pages["dense"])
    buf = bytearray(twin)
    out["apply_dense_us"] = round(_time_per_call(
        lambda: apply_diff(buf, diff), repeats, number), 2)

    # Dirty-region fast path: same sparse page, extents known.
    regions = [(96, 128), (896, 928), (2044, 2076), (3896, 3928)]
    out["sparse_with_regions_us"] = round(_time_per_call(
        lambda: compute_diff(0, twin, pages["sparse"], regions=regions),
        repeats, number), 2)
    return out


def run_all(quick: bool = False) -> dict:
    repeats, number = (2, 10) if quick else (5, 50)
    return {
        "build": "accelerated" if ACCELERATED else "pure",
        "page_size": PAGE_SIZE,
        "calibration_us": bench_calibration(),
        "diff": bench_diff_engine(repeats, number),
    }


def save(results: dict) -> None:
    """Merge this run into the results file under its build's key.

    Pure-build figures live at the top level; accelerated-build
    figures live under ``"accelerated"``.
    Whichever half this run did not measure is preserved.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_hotpaths.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    if results.get("build") == "accelerated":
        data["accelerated"] = {k: v for k, v in results.items()
                               if k != "build"}
    else:
        accel = data.get("accelerated")
        data = dict(results)
        if accel is not None:
            data["accelerated"] = accel
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({results.get('build', 'pure')} figures)")


# -- pytest smoke entry ------------------------------------------------------

@pytest.mark.benchmark(group="hotpaths")
def test_hotpaths_smoke(benchmark):
    results = benchmark.pedantic(lambda: run_all(quick=True),
                                 rounds=1, iterations=1)
    save(results)
    diff = results["diff"]
    # The vectorized engine must stay well ahead of the byte-loop
    # reference on both sparse and dense pages (acceptance: >= 3x).
    assert diff["sparse"]["speedup"] >= 3.0, diff
    assert diff["dense"]["speedup"] >= 3.0, diff
    # The dirty-region path must not be slower than the full scan.
    assert (results["diff"]["sparse_with_regions_us"]
            <= diff["sparse"]["vectorized_us"] * 1.5), results["diff"]


if __name__ == "__main__":
    out = run_all()
    print(json.dumps(out, indent=2, sort_keys=True))
    save(out)
