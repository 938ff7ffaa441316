#!/usr/bin/env python
"""Writing your own workload: a pipelined producer/consumer.

Shows the full Workload API surface, including the recovery replay
contract for kernels: persistent loop state via ``ctx.range``, one-shot
phases via ``ctx.pending``/``ctx.done``, and the advance-before-release
rule for read-modify-write critical sections. The same kernel runs
unchanged under the base protocol and the fault-tolerant one -- here we
additionally inject a failure to show the custom kernel recovering.

Run:  python examples/custom_workload.py
"""

import numpy as np

from repro.apps.base import Workload
from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.errors import ApplicationError
from repro.harness import SvmRuntime
from repro.harness.faultplan import FaultPlan


class Pipeline(Workload):
    """Thread t transforms stage t of a pipeline over a shared array.

    Stage 0 seeds the data; each later stage reads its predecessor's
    output and applies a deterministic transform; barriers separate the
    stages. The final stage's output is checked against a serial
    computation.
    """

    name = "pipeline"

    def __init__(self, items: int = 64, rounds: int = 3) -> None:
        self.items = items
        self.rounds = rounds
        self.data = None
        self.final_row = b""

    def setup(self, runtime) -> None:
        # One row of items per pipeline stage (= per thread), homed at
        # the stage's node so writes are owner-local.
        total = runtime.config.total_threads
        self.data = runtime.alloc("pipe", total * self.items * 8,
                                  home="block")

    def _row(self, stage: int) -> int:
        return self.data.addr(stage * self.items * 8)

    @staticmethod
    def transform(values: np.ndarray, stage: int) -> np.ndarray:
        return values * 2 + stage

    def kernel(self, ctx):
        for r in ctx.range("round", self.rounds):
            if ctx.pending(("work", r)):
                if ctx.tid == 0:
                    seed = np.arange(self.items, dtype=np.int64) + r
                    yield from ctx.svm.write_array(self._row(0), seed)
                ctx.done(("work", r))
            yield from ctx.barrier(self.BARRIER_A, key=r)
            # Stage t waits for stage t-1's output of this round: the
            # barriers order the stages within a round.
            for stage in range(1, ctx.nthreads):
                if ctx.tid == stage and ctx.pending(("stage", r, stage)):
                    prev = yield from ctx.svm.read_array(
                        self._row(stage - 1), np.int64, self.items)
                    yield from ctx.svm.compute(15.0)
                    yield from ctx.svm.write_array(
                        self._row(stage), self.transform(prev, stage))
                    ctx.done(("stage", r, stage))
                yield from ctx.barrier(self.BARRIER_B, key=(r, stage))
        # The raw accessors move bytes where read_array / write_array
        # move numpy arrays: thread 0 takes the final row as it sits in
        # shared memory.
        if ctx.tid == 0:
            self.final_row = yield from ctx.svm.read(
                self._row(ctx.nthreads - 1), self.items * 8)
        return None

    def verify(self, runtime) -> None:
        total = runtime.config.total_threads
        last_round = self.rounds - 1
        values = np.arange(self.items, dtype=np.int64) + last_round
        for stage in range(1, total):
            values = self.transform(values, stage)
        got = runtime.debug_read_array(self._row(total - 1), np.int64,
                                       self.items)
        if not np.array_equal(got, values):
            raise ApplicationError("pipeline output mismatch")


def main() -> None:
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=64,
        num_locks=16,
        page_size=512,
        protocol=ProtocolParams(variant="ft"),
    )
    runtime = SvmRuntime(config, Pipeline())
    # Kill stage 1's node in the middle of the second round.
    [kill] = FaultPlan.single(1, Hooks.BARRIER_ENTER, occurrence=5,
                              delay=1.0).apply(runtime.cluster)
    result = runtime.run()
    print("custom pipeline workload finished and verified")
    print(f"  node 1 fail-stopped at {kill.fired_at:.1f}us")
    print(f"  recoveries: {result.recoveries}")
    print(f"  live nodes: {runtime.cluster.live_nodes()}")
    print(f"  simulated time: {runtime.engine.now:.0f}us")
    print(f"  final row, read raw: {len(runtime.workload.final_row)} bytes")
    six = result.breakdown.six_component()
    total = sum(six.values())
    print("  breakdown: " + ", ".join(
        f"{k} {v / total * 100:.0f}%" for k, v in six.items() if v))


if __name__ == "__main__":
    main()
