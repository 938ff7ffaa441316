"""Randomized model check: random SPMD programs x protocols x faults.

Every generated program computes its expected final memory
analytically; any lost RMW, doubled replay, stale read, or broken
recovery shows up as a verification failure. This is the broadest
net in the suite -- the enumerated tests pin known cases, this one
hunts unknown ones.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.randomprog import RandomProgram
from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.harness.faultplan import FaultPlan
import random as _random

#: With REPRO_CHECK_INVARIANTS=1 every ft run here additionally runs
#: under the recovery invariant checker (CI's model-check job sets it;
#: off by default so the checker's audits never distort perf numbers).
CHECK_INVARIANTS = os.environ.get("REPRO_CHECK_INVARIANTS") == "1"


def make_runtime(program_seed, cluster_seed, variant,
                 lock_algorithm="polling"):
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=64,
        num_locks=64, seed=cluster_seed,
        page_size=512,
        protocol=ProtocolParams(variant=variant,
                                lock_algorithm=lock_algorithm))
    workload = RandomProgram(program_seed=program_seed, phases=3,
                             actions_per_phase=4, counters=3,
                             slots_per_thread=6, nthreads_hint=4)
    return SvmRuntime(config, workload)


def run_checked(runtime):
    """``runtime.run()`` -- with the invariant checker attached first
    when REPRO_CHECK_INVARIANTS=1 and the runtime is fault-tolerant."""
    checker = None
    if CHECK_INVARIANTS and runtime.config.protocol.is_ft:
        from repro.verify import RecoveryInvariantChecker
        checker = RecoveryInvariantChecker(runtime)
    result = runtime.run()
    if checker is not None:
        checker.finalize()
    return result


@given(program_seed=st.integers(1, 10_000),
       cluster_seed=st.integers(1, 1000),
       variant=st.sampled_from(["base", "ft"]),
       lock_algorithm=st.sampled_from(["polling", "queueing"]))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_program_failure_free(program_seed, cluster_seed,
                                     variant, lock_algorithm):
    runtime = make_runtime(program_seed, cluster_seed, variant,
                           lock_algorithm)
    run_checked(runtime)  # analytic verify inside


@given(program_seed=st.integers(1, 10_000),
       cluster_seed=st.integers(1, 1000),
       plan_seed=st.integers(1, 10_000),
       failures=st.integers(1, 2))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_program_random_faults(program_seed, cluster_seed,
                                      plan_seed, failures):
    runtime = make_runtime(program_seed, cluster_seed, "ft")
    plan = FaultPlan.random_plan(_random.Random(plan_seed),
                                 num_nodes=4, failures=failures)
    plan.apply(runtime.cluster)
    result = run_checked(runtime)  # analytic verify inside
    assert result.recoveries <= failures


def test_random_program_deterministic():
    a = make_runtime(42, 7, "ft").run()
    b = make_runtime(42, 7, "ft").run()
    assert a.elapsed_us == b.elapsed_us


def test_random_program_targeted_fault_matrix():
    """A small deterministic matrix over kill hooks, so regressions
    reproduce without hypothesis."""
    for hook, occurrence in ((Hooks.RELEASE_COMMITTED, 2),
                             (Hooks.DIFF_PHASE1_DONE, 2),
                             (Hooks.BARRIER_ENTER, 2),
                             (Hooks.LOCK_ACQUIRED, 3)):
        runtime = make_runtime(99, 5, "ft")
        FaultPlan.single(2, hook, occurrence, 1.0).apply(runtime.cluster)
        run_checked(runtime)


@pytest.mark.parametrize("ps,cs,plan_seed,failures", [
    # Regression: a barrier leader resuming its pre-failure pipeline
    # committed only the old page set, losing a migrated straggler's
    # replayed false-shared write.
    (8988, 987, 1368, 1),
    # Regression: the leader gathered stragglers while its paused
    # pipeline still held page locks the straggler needed -- deadlock.
    (3451, 745, 1001, 1),
    (3613, 381, 2794, 2),
    (1377, 959, 1717, 2),
])
def test_model_check_regressions(ps, cs, plan_seed, failures):
    runtime = make_runtime(ps, cs, "ft")
    FaultPlan.random_plan(_random.Random(plan_seed), 4,
                          failures).apply(runtime.cluster)
    run_checked(runtime)
