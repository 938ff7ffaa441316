"""The extended protocol in the common, failure-free case.

Correctness must be identical to the base protocol; overheads (double
diffs, home-page diffs, checkpoints) must be visible in the counters --
these are the effects the paper's evaluation section quantifies.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from tests.protocol.test_base_integration import (
    CounterWorkload,
    FalseSharingWorkload,
    MigratoryData,
    NeighborExchange,
)


def ft_config(num_nodes=4, threads_per_node=1, lock_algorithm="polling",
              seed=3, **proto_kw):
    return ClusterConfig(
        num_nodes=num_nodes,
        threads_per_node=threads_per_node,
        shared_pages=64,
        num_locks=64,
        seed=seed,
        page_size=512,
        protocol=ProtocolParams(variant="ft",
                                lock_algorithm=lock_algorithm,
                                **proto_kw),
    )


def base_config(**kw):
    config = ft_config(**kw)
    return config.with_protocol("base")


@pytest.mark.parametrize("lock_algorithm", ["polling", "queueing"])
def test_counter_correct_under_ft(lock_algorithm):
    runtime = SvmRuntime(ft_config(lock_algorithm=lock_algorithm),
                         CounterWorkload(increments=4))
    result = runtime.run()
    assert result.counters.total.checkpoints > 0


def test_neighbor_exchange_correct_under_ft():
    runtime = SvmRuntime(ft_config(), NeighborExchange(ints_per_thread=64))
    runtime.run()


def test_false_sharing_correct_under_ft():
    runtime = SvmRuntime(ft_config(), FalseSharingWorkload())
    runtime.run()


def test_migratory_correct_under_ft():
    runtime = SvmRuntime(ft_config(), MigratoryData(rounds=6))
    runtime.run()


def test_ft_smp_nodes():
    runtime = SvmRuntime(ft_config(num_nodes=2, threads_per_node=2),
                         NeighborExchange(ints_per_thread=32))
    result = runtime.run()
    # Serialized releases are an FT-specific constraint (section 4.4);
    # with two threads per node stalls may occur but must not deadlock.
    assert result.elapsed_us > 0


def test_ft_diffs_home_pages_too():
    """Under FT, even pages homed at the writer are diffed (twice).
    With owner-computes placement (FFT/LU style) the base protocol
    sends no diffs at all, the extended one diffs everything."""
    base = SvmRuntime(base_config(), NeighborExchange(
        ints_per_thread=64, home_policy="block"))
    rb = base.run()
    ft = SvmRuntime(ft_config(), NeighborExchange(
        ints_per_thread=64, home_policy="block"))
    rf = ft.run()
    assert rf.counters.total.pages_diffed > rb.counters.total.pages_diffed
    assert rf.counters.total.home_pages_diffed > 0
    # Two-phase propagation: roughly twice the diff messages per page.
    assert rf.counters.total.diff_messages >= \
        2 * rf.counters.total.pages_diffed


def test_ft_costs_more_than_base():
    """The paper's headline: extended protocol overhead in the
    failure-free case (20%-100% across their apps)."""
    rb = SvmRuntime(base_config(), NeighborExchange()).run()
    rf = SvmRuntime(ft_config(), NeighborExchange()).run()
    assert rf.elapsed_us > rb.elapsed_us


def test_ft_checkpoint_sizes_recorded():
    runtime = SvmRuntime(ft_config(), MigratoryData(rounds=4))
    result = runtime.run()
    totals = result.counters.total
    assert totals.checkpoints > 0
    assert totals.checkpoint_bytes > 0
    assert result.counters.mean_checkpoint_bytes > 0


def test_ft_memory_roughly_doubles():
    """Every shared page has a committed and a tentative replica in
    addition to working copies -- the paper's ~2x memory claim."""
    runtime = SvmRuntime(ft_config(), NeighborExchange(ints_per_thread=64))
    runtime.run()
    # Each allocated page has exactly one committed (at primary) and
    # one tentative (at secondary) replica, on distinct nodes.
    space = runtime.cluster.address_space
    for page in space.home_hint:
        primary = runtime.homes.primary_home(page)
        secondary = runtime.homes.secondary_home(page)
        assert primary != secondary


def test_ft_deterministic():
    r1 = SvmRuntime(ft_config(seed=5), NeighborExchange()).run()
    r2 = SvmRuntime(ft_config(seed=5), NeighborExchange()).run()
    assert r1.elapsed_us == r2.elapsed_us


def test_ft_without_checkpointing_ablation():
    full = SvmRuntime(ft_config(), MigratoryData(rounds=6)).run()
    no_ckpt = SvmRuntime(ft_config(checkpointing=False),
                         MigratoryData(rounds=6)).run()
    assert no_ckpt.counters.total.checkpoints == 0
    assert no_ckpt.elapsed_us <= full.elapsed_us


def test_ft_requires_two_nodes():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        ClusterConfig(num_nodes=1,
                      protocol=ProtocolParams(variant="ft"))
