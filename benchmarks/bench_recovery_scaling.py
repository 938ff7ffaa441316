"""Recovery-cost scaling: reconfiguration work vs. replicated state.

The paper's design replaces log replay with "simple reconfiguration
operations"; the implied scaling claim is that recovery cost is
bounded by the amount of state the failed node was hosting (pages to
re-replicate, locks to re-home) rather than by execution history.

This bench sweeps the shared-data footprint and, separately, the
execution length before the failure, and checks exactly that: recovery
time grows with hosted pages and is flat in history length.
"""

import pytest

from benchmarks.conftest import run_once, save_result
from repro.apps import SyntheticWorkload
from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness.faultplan import FaultPlan
from repro.harness.runner import SvmRuntime


def _run(pages_per_thread, iterations, victim=2):
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1,
        shared_pages=max(64, 16 * pages_per_thread),
        num_locks=64, seed=11,
        page_size=512,
        protocol=ProtocolParams(variant="ft"),
    )
    workload = SyntheticWorkload(iterations=iterations,
                                 pages_per_interval=pages_per_thread,
                                 bytes_per_page=128, compute_us=10.0,
                                 sync="locks")
    runtime = SvmRuntime(config, workload)
    FaultPlan.single(victim, Hooks.LOCK_ACQUIRED,
                     occurrence=max(2, iterations // 2),
                     delay=0.5).apply(runtime.cluster)
    result = runtime.run()
    assert result.recoveries == 1
    return runtime.recovery_manager.last_recovery_us


def _scaling_table():
    rows = ["recovery time vs shared-data footprint "
            "(4 nodes, failure mid-run)",
            f"{'pages/thread':>13s} {'recovery_us':>12s}",
            "-" * 28]
    out = {"pages": {}, "history": {}}
    for pages in (1, 4, 16, 32):
        rec = _run(pages, iterations=8)
        rows.append(f"{pages:13d} {rec:12.1f}")
        out["pages"][pages] = rec
    rows.append("")
    rows.append("recovery time vs execution history before the failure")
    rows.append(f"{'iterations':>13s} {'recovery_us':>12s}")
    rows.append("-" * 28)
    for iters in (4, 8, 16, 32):
        rec = _run(4, iterations=iters)
        rows.append(f"{iters:13d} {rec:12.1f}")
        out["history"][iters] = rec
    return out, "\n".join(rows)


@pytest.mark.benchmark(group="recovery-scaling")
def test_recovery_scaling(benchmark):
    data, text = run_once(benchmark, _scaling_table)
    save_result("recovery_scaling", text)
    benchmark.extra_info["recovery_us"] = {
        "by_pages": {str(k): round(v, 1)
                     for k, v in data["pages"].items()},
        "by_history": {str(k): round(v, 1)
                       for k, v in data["history"].items()},
    }
    pages = data["pages"]
    history = data["history"]
    # Recovery grows with hosted state...
    assert pages[32] > pages[1]
    # ...but is flat in execution history (no log replay): the longest
    # run's recovery stays within 2x of the shortest's.
    assert max(history.values()) < 2.0 * min(history.values())
