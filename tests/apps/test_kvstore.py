"""Tests for the server-style KVStore workload (paper section 6's
'broader application domain' question)."""

import pytest

from repro.apps import KVStore
from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.harness.faultplan import FaultPlan


def config_for(variant, threads_per_node=1, seed=3):
    return ClusterConfig(
        num_nodes=4, threads_per_node=threads_per_node,
        shared_pages=64, num_locks=64, seed=seed,
        page_size=512,
        protocol=ProtocolParams(variant=variant))


@pytest.mark.parametrize("variant", ["base", "ft"])
def test_kvstore_correct(variant):
    runtime = SvmRuntime(config_for(variant),
                         KVStore(buckets=16, txns_per_thread=6))
    result = runtime.run()  # verify: conservation + serial replay
    assert result.counters.total.lock_acquires > 0


def test_kvstore_smp():
    runtime = SvmRuntime(config_for("ft", threads_per_node=2),
                         KVStore(buckets=16, txns_per_thread=4))
    runtime.run()


@pytest.mark.parametrize("hook,occurrence,delay", [
    (Hooks.LOCK_ACQUIRED, 5, 0.3),
    (Hooks.LOCK_RELEASED, 4, 0.2),     # between the two releases
    (Hooks.RELEASE_COMMITTED, 3, 1.5),
    (Hooks.DIFF_PHASE1_DONE, 3, 0.1),
])
def test_kvstore_survives_failure(hook, occurrence, delay):
    """No transaction may be lost or double-applied across a node
    death -- the version-counter check catches either."""
    runtime = SvmRuntime(config_for("ft"),
                         KVStore(buckets=16, txns_per_thread=8))
    records = FaultPlan.single(2, hook, occurrence,
                               delay).apply(runtime.cluster)
    result = runtime.run()
    assert records[0].fired_at is not None
    assert result.recoveries == 1


def test_kvstore_no_owner_locality():
    """Server workloads have no owner-computes placement: the home-page
    diff fraction sits near 1/num_nodes (random access), below the
    scientific kernels'."""
    runtime = SvmRuntime(config_for("ft"),
                         KVStore(buckets=16, txns_per_thread=8))
    result = runtime.run()
    assert result.counters.home_diff_fraction < 0.6
