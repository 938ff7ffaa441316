"""Property-based fault sweep: correctness at randomized kill points.

Hypothesis drives a one-kill fault plan over (victim, protocol hook,
occurrence, extra delay); the migratory-counter workload must produce
exactly the right sum after every recovery. This covers kill points
the enumerated scenario tests do not.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.harness.faultplan import FailureSpec, FaultPlan
from tests.protocol.test_base_integration import (
    CounterWorkload,
    MigratoryData,
)

HOOKS = [
    Hooks.LOCK_ACQUIRED,
    Hooks.LOCK_RELEASED,
    Hooks.RELEASE_COMMITTED,
    Hooks.DIFF_PHASE1_DONE,
    Hooks.DIFF_PHASE2_START,
    Hooks.CHECKPOINT_A,
    Hooks.CHECKPOINT_B,
    Hooks.PAGE_FAULT,
]


def _config(seed):
    return ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=64,
        num_locks=64, seed=seed,
        page_size=512,
        protocol=ProtocolParams(variant="ft", lock_algorithm="polling"))


@given(
    victim=st.integers(0, 3),
    hook=st.sampled_from(HOOKS),
    occurrence=st.integers(1, 8),
    delay=st.floats(0.0, 30.0),
    seed=st.integers(1, 50),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_kill_point_still_correct(victim, hook, occurrence,
                                         delay, seed):
    runtime = SvmRuntime(_config(seed), MigratoryData(rounds=8))
    [record] = FaultPlan.single(victim, hook, occurrence,
                                delay).apply(runtime.cluster)
    result = runtime.run()  # verify() raises on a wrong sum
    # The injection may or may not have fired (the hook may occur fewer
    # than `occurrence` times); when it fired, recovery must have run.
    if record.fired_at is not None:
        assert result.recoveries == 1
        assert runtime.threads[victim].resumptions == 1
    else:
        assert result.recoveries == 0


@given(victim=st.integers(0, 3), when=st.floats(50.0, 4000.0),
       seed=st.integers(1, 20))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_kill_time_still_correct(victim, when, seed):
    runtime = SvmRuntime(_config(seed), CounterWorkload(increments=5))
    [record] = FaultPlan([FailureSpec(victim, at_time=when)]).apply(
        runtime.cluster)
    result = runtime.run()
    # The invariant is the verified counter (checked inside run()).
    # Recovery runs exactly when the victim still had unfinished work;
    # a kill landing after every thread completed needs none.
    if record.fired_at is not None:
        victim_migrated = runtime.threads[victim].resumptions > 0
        assert result.recoveries == (1 if victim_migrated else 0)
        if result.recoveries == 0:
            assert runtime.threads[victim].finished
