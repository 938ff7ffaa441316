"""Hot-path perf-regression harness.

Times the simulator's host-side hot paths -- the code that dominated
profiles before the vectorization pass -- and records the results in
``results/BENCH_hotpaths.json`` so later changes can be checked against
them:

* diff compute (vectorized vs. the retained byte-loop reference, on
  sparse / dense / clean pages), diff apply;
* page fault + remote fetch (host microseconds per fault in a
  fetch-heavy synthetic run);
* lock handoff (host microseconds per acquire in a contended
  lock-ping-pong synthetic run);
* an end-to-end FFT slice under the fault-tolerant protocol.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_hotpaths.py``)
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
from repro.apps.synthetic import SyntheticWorkload
from repro.sim import ACCELERATED
from repro.harness.experiments import evaluation_config, run_app
from repro.harness.runner import SvmRuntime
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


def _run_synthetic(workload: SyntheticWorkload, num_nodes: int = 4):
    config = evaluation_config("ft", num_nodes=num_nodes)
    runtime = SvmRuntime(config, workload)
    t0 = time.perf_counter()
    result = runtime.run(verify=False)
    wall = time.perf_counter() - t0
    return wall, result


def bench_fault_fetch(iterations: int = 40) -> dict:
    """Fetch-heavy run: almost all writes land on remote home pages."""
    wl = SyntheticWorkload(iterations=iterations, pages_per_interval=4,
                           home_fraction=0.0, bytes_per_page=256,
                           num_locks=1, compute_us=1.0, sync="barriers")
    wall, result = _run_synthetic(wl)
    faults = max(result.counters.total.page_faults, 1)
    return {"wall_s": round(wall, 3),
            "page_faults": result.counters.total.page_faults,
            "host_us_per_fault": round(wall * 1e6 / faults, 1)}


def bench_lock_handoff(iterations: int = 60) -> dict:
    """Contended single lock: handoffs dominate."""
    wl = SyntheticWorkload(iterations=iterations, pages_per_interval=1,
                           home_fraction=0.5, bytes_per_page=64,
                           num_locks=1, compute_us=1.0, sync="locks")
    wall, result = _run_synthetic(wl)
    acquires = max(result.counters.total.lock_acquires, 1)
    return {"wall_s": round(wall, 3),
            "lock_acquires": result.counters.total.lock_acquires,
            "host_us_per_acquire": round(wall * 1e6 / acquires, 1)}


def bench_fft_slice(scale: str = "test") -> dict:
    """End-to-end: FFT under the fault-tolerant protocol."""
    t0 = time.perf_counter()
    result = run_app("FFT", "ft", scale=scale)
    wall = time.perf_counter() - t0
    return {"wall_s": round(wall, 3),
            "simulated_us": round(result.elapsed_us, 1),
            "page_faults": result.counters.total.page_faults,
            "diff_messages": result.counters.total.diff_messages}


def run_all(quick: bool = False) -> dict:
    repeats, number = (2, 10) if quick else (5, 50)
    return {
        "build": "accelerated" if ACCELERATED else "pure",
        "page_size": PAGE_SIZE,
        "calibration_us": bench_calibration(),
        "diff": bench_diff_engine(repeats, number),
        "fault_fetch": bench_fault_fetch(10 if quick else 40),
        "lock_handoff": bench_lock_handoff(15 if quick else 60),
        "fft_slice": bench_fft_slice("test"),
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
    for section in ("fault_fetch", "lock_handoff", "fft_slice"):
        assert results[section]["wall_s"] > 0


if __name__ == "__main__":
    out = run_all()
    print(json.dumps(out, indent=2, sort_keys=True))
    save(out)
