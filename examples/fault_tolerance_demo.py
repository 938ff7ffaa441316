#!/usr/bin/env python
"""Fault-tolerance demo: kill a node mid-run and watch recovery.

Runs Water-Nsquared (lock-heavy molecular dynamics) under the extended
protocol on 4 simulated nodes, fail-stops node 2 in the middle of its
third release -- during diff propagation, the paper's most delicate
window -- and prints the recovery timeline:

* detection (a communication error or heart-beat timeout),
* the global rendezvous,
* home reconfiguration / replica reconciliation,
* the failed node's threads resuming on their backup node.

The run finishes on 3 nodes and the final positions/velocities are
verified against a serial reference, so this demo is falsifiable:
any recovery bug makes it crash.

Run:  python examples/fault_tolerance_demo.py
"""

from repro.apps import WaterNsquared
from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.harness.faultplan import FaultPlan
from repro.metrics import ProtocolTrace


def main() -> None:
    config = ClusterConfig(
        num_nodes=4,
        threads_per_node=1,
        shared_pages=256,
        num_locks=128,
        page_size=512,
        protocol=ProtocolParams(variant="ft", lock_algorithm="polling"),
    )
    workload = WaterNsquared(molecules=32, steps=2)
    runtime = SvmRuntime(config, workload)

    victim = 2
    [kill] = FaultPlan.single(victim, Hooks.RELEASE_COMMITTED, occurrence=3,
                              delay=2.0).apply(runtime.cluster)
    timeline = ProtocolTrace(runtime.cluster, events=(
        Hooks.FAILURE_DETECTED, Hooks.RECOVERY_START,
        Hooks.THREAD_RESUMED, Hooks.RECOVERY_DONE))

    print(f"running Water-Nsquared on 4 nodes; node {victim} will "
          "fail-stop during its 3rd release...\n")
    result = runtime.run()  # verifies against the serial reference

    print(f"node {victim} fail-stopped at {kill.fired_at:.1f}us")
    print("recovery timeline (simulated microseconds):")
    for t, event, node_id, info in timeline:
        extra = ""
        if event == Hooks.RECOVERY_DONE:
            extra = f"  (recovery took {info['duration_us']:.1f}us)"
        if event == Hooks.THREAD_RESUMED:
            extra = f"  (thread {info['tid']} now on node {node_id})"
        print(f"  {t:10.1f}  {event:18s} node={node_id}{extra}")

    print(f"\nrun finished at {runtime.engine.now:.0f}us with "
          f"{result.recoveries} recovery")
    print(f"live nodes at the end: {runtime.cluster.live_nodes()}")
    migrated = [rec.tid for rec in runtime.threads if rec.resumptions]
    print(f"threads migrated to backup node: {migrated}")
    print("application result verified against the serial reference: OK")


if __name__ == "__main__":
    main()
