"""End-to-end tests of the base (GeNIMA) protocol on small workloads.

These exercise the full stack -- page faults, twins, diffs, version
gating, locks, barriers -- with kernels computing real answers through
the simulated coherence layer.
"""

import numpy as np
import pytest

from repro.apps.base import AppContext, Workload
from repro.config import ClusterConfig, ProtocolParams
from repro.errors import ApplicationError
from repro.harness import SvmRuntime
from repro.metrics import Category


def small_config(num_nodes=4, threads_per_node=1, lock_algorithm="polling",
                 seed=3):
    return ClusterConfig(
        num_nodes=num_nodes,
        threads_per_node=threads_per_node,
        shared_pages=64,
        num_locks=64,
        seed=seed,
        page_size=512,
        protocol=ProtocolParams(variant="base",
                                lock_algorithm=lock_algorithm),
    )


class CounterWorkload(Workload):
    """Every thread increments a shared counter under a lock."""

    name = "counter"

    def __init__(self, increments=5):
        self.increments = increments
        self.seg = None

    def setup(self, runtime):
        self.seg = runtime.alloc("counter", 8, home=0)

    def kernel(self, ctx):
        addr = self.seg.addr(0)
        for i in ctx.range("i", self.increments):
            yield from ctx.svm.acquire(1)
            value = yield from ctx.svm.read_i64(addr)
            yield from ctx.svm.compute(1.0)
            yield from ctx.svm.write_i64(addr, value + 1)
            # Read-modify-write: advance the persistent continuation
            # atomically with the write, before the release checkpoints
            # it (the replay contract of apps/base.py).
            ctx.state["i"] = i + 1
            yield from ctx.svm.release(1)
        yield from ctx.barrier(self.BARRIER_A)

    def verify(self, runtime):
        total = runtime.debug_read_array(self.seg.addr(0), np.int64, 1)[0]
        expected = self.increments * runtime.config.total_threads
        if total != expected:
            raise ApplicationError(
                f"counter is {total}, expected {expected}")


class NeighborExchange(Workload):
    """Each thread fills its block; after a barrier every thread checks
    its right neighbor's block -- a pure producer/consumer pattern that
    validates diff propagation and invalidation."""

    name = "neighbor"

    def __init__(self, ints_per_thread=256, home_policy="shifted"):
        self.n = ints_per_thread
        #: "shifted" homes each block at the node after its writer
        #: (writes flow to remote homes); "block" homes blocks at their
        #: writers (FFT/LU-style owner-computes placement).
        self.home_policy = home_policy
        self.seg = None

    def setup(self, runtime):
        total = runtime.config.total_threads
        nodes = runtime.config.num_nodes
        nbytes = total * self.n * 8
        pages = -(-nbytes // runtime.config.page_size)
        if self.home_policy == "shifted":
            home = lambda i: (min(i * nodes // pages, nodes - 1) + 1) % nodes
        else:
            home = self.home_policy
        self.seg = runtime.alloc("blocks", nbytes, home=home)

    def kernel(self, ctx):
        base = self.seg.addr(ctx.tid * self.n * 8)
        if ctx.pending("fill"):
            data = np.arange(self.n, dtype=np.int64) + ctx.tid * 1000
            yield from ctx.svm.write_array(base, data)
            ctx.done("fill")
        yield from ctx.barrier(self.BARRIER_A)
        yield from ctx.svm.compute(25.0)
        neighbor = (ctx.tid + 1) % ctx.nthreads
        naddr = self.seg.addr(neighbor * self.n * 8)
        got = yield from ctx.svm.read_array(naddr, np.int64, self.n)
        expected = np.arange(self.n, dtype=np.int64) + neighbor * 1000
        if not np.array_equal(got, expected):
            raise ApplicationError(
                f"thread {ctx.tid} read wrong neighbor data")
        yield from ctx.barrier(self.BARRIER_B)

    def verify(self, runtime):
        total = runtime.config.total_threads
        for tid in range(total):
            got = runtime.debug_read_array(
                self.seg.addr(tid * self.n * 8), np.int64, self.n)
            expected = np.arange(self.n, dtype=np.int64) + tid * 1000
            if not np.array_equal(got, expected):
                raise ApplicationError(f"block {tid} wrong at home")


class FalseSharingWorkload(Workload):
    """All threads write disjoint slices of the *same* page, then check
    everyone's slices -- the multiple-writer / diff-merge property."""

    name = "false_sharing"

    def setup(self, runtime):
        self.seg = runtime.alloc("page", 512, home=0)

    def kernel(self, ctx):
        width = 512 // ctx.nthreads
        base = self.seg.addr(ctx.tid * width)
        if ctx.pending("write"):
            yield from ctx.svm.write(base, bytes([ctx.tid + 1]) * width)
            ctx.done("write")
        yield from ctx.barrier(self.BARRIER_A)
        whole = yield from ctx.svm.read(self.seg.addr(0),
                                        width * ctx.nthreads)
        for t in range(ctx.nthreads):
            slice_ = whole[t * width:(t + 1) * width]
            if slice_ != bytes([t + 1]) * width:
                raise ApplicationError(
                    f"thread {ctx.tid} sees corrupt slice of writer {t}")
        yield from ctx.barrier(self.BARRIER_B)


class MigratoryData(Workload):
    """A value bounces between threads under a lock (migratory sharing,
    stressing lock-timestamp consistency ordering)."""

    name = "migratory"

    def __init__(self, rounds=12):
        self.rounds = rounds

    def setup(self, runtime):
        self.seg = runtime.alloc("cell", 16, home=1)

    def kernel(self, ctx):
        addr = self.seg.addr(0)
        for r in ctx.range("r", self.rounds):
            yield from ctx.svm.acquire(2)
            v = yield from ctx.svm.read_i64(addr)
            yield from ctx.svm.write_i64(addr, v + ctx.tid + 1)
            ctx.state["r"] = r + 1  # RMW replay contract (apps/base.py)
            yield from ctx.svm.release(2)
        yield from ctx.barrier(self.BARRIER_A)

    def verify(self, runtime):
        got = runtime.debug_read_array(self.seg.addr(0), np.int64, 1)[0]
        n = runtime.config.total_threads
        expected = self.rounds * sum(t + 1 for t in range(n))
        if got != expected:
            raise ApplicationError(f"migratory sum {got} != {expected}")


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lock_algorithm", ["polling", "queueing"])
def test_counter_mutual_exclusion(lock_algorithm):
    runtime = SvmRuntime(small_config(lock_algorithm=lock_algorithm),
                         CounterWorkload(increments=4))
    result = runtime.run()
    assert result.counters.total.lock_acquires > 0


def test_neighbor_exchange_uniprocessor():
    runtime = SvmRuntime(small_config(), NeighborExchange())
    result = runtime.run()
    assert result.counters.total.pages_diffed > 0
    assert result.counters.total.remote_page_fetches > 0


def test_neighbor_exchange_smp_nodes():
    runtime = SvmRuntime(small_config(num_nodes=2, threads_per_node=2),
                         NeighborExchange(ints_per_thread=64))
    runtime.run()


def test_false_sharing_multiple_writers():
    runtime = SvmRuntime(small_config(), FalseSharingWorkload())
    runtime.run()


@pytest.mark.parametrize("lock_algorithm", ["polling", "queueing"])
def test_migratory_data(lock_algorithm):
    runtime = SvmRuntime(small_config(lock_algorithm=lock_algorithm),
                         MigratoryData(rounds=6))
    runtime.run()


def test_breakdown_sums_to_elapsed():
    runtime = SvmRuntime(small_config(), NeighborExchange())
    result = runtime.run()
    for breakdown in result.thread_breakdowns:
        assert sum(breakdown.fine.values()) == pytest.approx(
            sum(breakdown.coarse.values()))
    assert result.breakdown.total > 0
    six = result.breakdown.six_component()
    assert six["compute"] > 0
    assert six["data_wait"] > 0


def test_deterministic_runs():
    r1 = SvmRuntime(small_config(seed=9), NeighborExchange()).run()
    r2 = SvmRuntime(small_config(seed=9), NeighborExchange()).run()
    assert r1.elapsed_us == r2.elapsed_us
    assert r1.breakdown.six_component() == r2.breakdown.six_component()


def test_single_thread_whole_cluster():
    config = small_config(num_nodes=2, threads_per_node=1)
    runtime = SvmRuntime(config, CounterWorkload(increments=3))
    runtime.run()


def test_counters_track_faults_and_twins():
    runtime = SvmRuntime(small_config(), NeighborExchange())
    result = runtime.run()
    totals = result.counters.total
    assert totals.page_faults >= totals.twins_created
    assert totals.write_faults > 0
    assert totals.read_faults > 0
