"""Contrast: the base protocol does NOT survive node failures.

The paper's point of departure -- "when even a single processor fails,
the entire computation is either halted ... or the results produced
may be incorrect" (section 1). These tests pin the base protocol's
failure behaviour so the extended protocol's value is demonstrated
against a real baseline, not assumed.
"""

import pytest

from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.errors import ProtocolError, RemoteNodeFailure
from repro.harness import SvmRuntime
from repro.harness.faultplan import FaultPlan
from tests.protocol.test_base_integration import (
    MigratoryData,
    NeighborExchange,
)


def base_config(seed=3):
    return ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=64,
        num_locks=64, seed=seed,
        page_size=512,
        protocol=ProtocolParams(variant="base"))


def test_base_protocol_halts_on_failure():
    """A node death under GeNIMA leaves the computation stuck: either
    a communication error surfaces, or the run never completes within
    a generous simulated-time budget."""
    runtime = SvmRuntime(base_config(), MigratoryData(rounds=10))
    FaultPlan.single(2, Hooks.LOCK_ACQUIRED, occurrence=2,
                     delay=0.4).apply(runtime.cluster)
    with pytest.raises((ProtocolError, RemoteNodeFailure)):
        runtime.run(max_sim_us=200_000.0)


def test_base_protocol_halts_on_barrier_participant_death():
    runtime = SvmRuntime(base_config(), NeighborExchange(
        ints_per_thread=64))
    FaultPlan.single(3, Hooks.BARRIER_ENTER, occurrence=2,
                     delay=0.2).apply(runtime.cluster)
    with pytest.raises((ProtocolError, RemoteNodeFailure)):
        runtime.run(max_sim_us=200_000.0)


def test_same_scenario_survives_under_ft():
    """The identical failure, extended protocol: completes & verifies."""
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=64,
        num_locks=64, seed=3,
        page_size=512,
        protocol=ProtocolParams(variant="ft"))
    runtime = SvmRuntime(config, MigratoryData(rounds=10))
    FaultPlan.single(2, Hooks.LOCK_ACQUIRED, occurrence=2,
                     delay=0.4).apply(runtime.cluster)
    result = runtime.run(max_sim_us=200_000.0)
    assert result.recoveries == 1
