#!/usr/bin/env python
"""Quickstart: a shared counter on a simulated 4-node SVM cluster.

Demonstrates the core public API:

* define a workload (an SPMD kernel over shared virtual memory),
* run it under the base GeNIMA protocol and under the fault-tolerant
  extended protocol,
* read the execution-time breakdown the paper's figures use.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.apps.base import Workload
from repro.config import ClusterConfig, ProtocolParams
from repro.errors import ApplicationError
from repro.harness import SvmRuntime


class SharedCounter(Workload):
    """Every thread increments one shared counter under a lock."""

    name = "shared-counter"

    def __init__(self, increments: int = 10) -> None:
        self.increments = increments
        self.cell = None

    def setup(self, runtime) -> None:
        # One 8-byte cell, homed at node 0. Homes are per page; the
        # application chooses the distribution (paper section 4.2).
        self.cell = runtime.alloc("counter", 8, home=0)

    def kernel(self, ctx):
        addr = self.cell.addr(0)
        for i in ctx.range("i", self.increments):
            yield from ctx.svm.acquire(1)
            value = yield from ctx.svm.read_i64(addr)
            yield from ctx.svm.compute(2.0)  # 2us of "work"
            yield from ctx.svm.write_i64(addr, value + 1)
            ctx.state["i"] = i + 1  # checkpoint contract for RMW
            yield from ctx.svm.release(1)
        yield from ctx.barrier(self.BARRIER_A)

    def verify(self, runtime) -> None:
        got = runtime.debug_read_array(self.cell.addr(0), np.int64, 1)[0]
        want = self.increments * runtime.config.total_threads
        if got != want:
            raise ApplicationError(f"counter {got} != {want}")


def run(variant: str):
    config = ClusterConfig(
        num_nodes=4,
        threads_per_node=1,
        shared_pages=64,
        num_locks=16,
        page_size=512,
        protocol=ProtocolParams(variant=variant),
    )
    runtime = SvmRuntime(config, SharedCounter())
    return runtime.run()  # verifies the counter on the way out


def main() -> None:
    base = run("base")
    extended = run("ft")
    print("shared counter on 4 simulated nodes -- both results verified\n")
    print(f"{'component':16s}{'base (us)':>12s}{'extended (us)':>15s}")
    b6 = base.breakdown.six_component()
    e6 = extended.breakdown.six_component()
    for component in b6:
        print(f"{component:16s}{b6[component]:12.1f}{e6[component]:15.1f}")
    print(f"{'total':16s}{base.elapsed_us:12.1f}{extended.elapsed_us:15.1f}")
    overhead = (extended.elapsed_us / base.elapsed_us - 1) * 100
    print(f"\nfault-tolerance overhead in the failure-free case: "
          f"{overhead:.0f}%")
    print(f"checkpoints taken by the extended protocol: "
          f"{extended.counters.total.checkpoints}")


if __name__ == "__main__":
    main()
