#!/usr/bin/env python
"""Watching the two-phase protocol work: event tracing + bar charts.

Runs the server-style KVStore workload under the extended protocol,
records every protocol event with the tracer, verifies the two-phase
invariants from the recorded ordering, and renders the execution-time
breakdown as the paper-style stacked bars.

Run:  python examples/protocol_trace.py
"""

from repro.apps import KVStore
from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.metrics import ProtocolTrace, stacked_bars


def main() -> None:
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=64,
        num_locks=64,
        page_size=512,
        protocol=ProtocolParams(variant="ft"))
    runtime = SvmRuntime(config, KVStore(buckets=16, txns_per_thread=5))
    trace = ProtocolTrace(runtime.cluster)
    result = runtime.run()

    print("=== one release, as recorded by the tracer ===")
    start = trace.first(Hooks.RELEASE_COMMITTED)
    window = trace.between(start.time_us, start.time_us + 120.0)
    for event in window[:14]:
        print(f"  {event}")

    print("\n=== two-phase invariants, checked on the full trace ===")
    for earlier, later, meaning in (
        (Hooks.RELEASE_COMMITTED, Hooks.DIFF_PHASE1_DONE,
         "commit precedes phase 1 completion"),
        (Hooks.DIFF_PHASE1_DONE, Hooks.LOCK_RELEASED,
         "the lock moves only after point B"),
        (Hooks.DIFF_PHASE1_DONE, Hooks.DIFF_PHASE2_START,
         "committed copies update last"),
    ):
        trace.assert_ordering(earlier, later)
        print(f"  ok: {meaning}")

    print("\n=== breakdown (paper figure style) ===")
    six = result.breakdown.six_component()
    print(stacked_bars(
        "KVStore under the extended protocol",
        {"KVStore/1": six},
        ("compute", "data_wait", "synchronization", "diffs",
         "protocol", "checkpointing")))

    lock = result.latency.histogram("lock_acquire")
    fault = result.latency.histogram("page_fault")
    print(f"\nmean lock wait {lock.mean_us:.1f}us over {lock.count} "
          f"acquires; mean fault {fault.mean_us:.1f}us over "
          f"{fault.count} faults")
    print(f"checkpoints: {result.counters.total.checkpoints}, "
          f"diff messages: {result.counters.total.diff_messages}")
    print("\ntransactional result verified against serial replay: OK")


if __name__ == "__main__":
    main()
