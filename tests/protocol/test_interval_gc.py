"""Interval-log garbage collection: protocol metadata stays bounded.

The paper's related-work section criticizes log-based schemes for
unbounded logs needing trimming policies; here the barrier's global
notice distribution makes trimming free. These tests pin that down.
"""

import pytest

from repro.apps.base import Workload
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime


class BarrierChurn(Workload):
    """Each iteration writes a page and crosses a barrier: without GC
    the interval log grows linearly with iterations."""

    name = "churn"

    def __init__(self, iterations=12):
        self.iterations = iterations
        self.seg = None

    def setup(self, runtime):
        total = runtime.config.total_threads
        self.seg = runtime.alloc("churn", total * 512, home="round_robin")

    def kernel(self, ctx):
        base = self.seg.addr(ctx.tid * 512)
        for i in ctx.range("i", self.iterations):
            yield from ctx.svm.write(base, bytes([i % 250 + 1]) * 64)
            yield from ctx.barrier(self.BARRIER_A, key=i)
        yield from ctx.barrier(self.BARRIER_B)


def run_churn(variant, iterations=12):
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=32,
        num_locks=16, seed=7,
        page_size=512,
        protocol=ProtocolParams(variant=variant))
    runtime = SvmRuntime(config, BarrierChurn(iterations))
    result = runtime.run()
    return runtime, result


@pytest.mark.parametrize("variant", ["base", "ft"])
def test_interval_log_bounded_by_gc(variant):
    runtime, result = run_churn(variant, iterations=12)
    assert result.counters.total.intervals_trimmed > 0
    for agent in runtime.agents:
        own = agent.interval_log[agent.node_id]
        # Everything up to the last barrier was trimmed; at most the
        # final (post-last-trim) intervals remain.
        assert all(i > agent.last_barrier_interval for i in own)
        assert len(own) <= 2


@pytest.mark.parametrize("variant", ["base", "ft"])
def test_gc_scales_flat_not_linear(variant):
    short_rt, _ = run_churn(variant, iterations=6)
    long_rt, _ = run_churn(variant, iterations=18)
    short_len = max(len(a.interval_log[a.node_id])
                    for a in short_rt.agents)
    long_len = max(len(a.interval_log[a.node_id])
                   for a in long_rt.agents)
    assert long_len <= short_len + 1  # flat, not proportional to work


def test_ft_backup_mirror_trimmed_too():
    runtime, _ = run_churn("ft", iterations=12)
    for agent in runtime.agents:
        for ward, mirror in agent.ckpt_store.interval_mirror.items():
            ward_agent = runtime.agents[ward]
            assert all(i > ward_agent.last_barrier_interval
                       for i in mirror), \
                f"stale mirror entries for ward {ward}"


def test_gc_does_not_break_lock_based_sharing():
    """Locks fetch notices lazily; GC must never discard an interval a
    lazy acquirer still needs. The migratory workload acquires after
    barriers, exercising exactly that window."""
    from tests.protocol.test_base_integration import MigratoryData
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=32,
        num_locks=16, seed=7,
        page_size=512,
        protocol=ProtocolParams(variant="ft"))
    runtime = SvmRuntime(config, MigratoryData(rounds=10))
    runtime.run()  # verify() inside
