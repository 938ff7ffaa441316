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

from repro.cluster import Hooks
from repro.harness.faultplan import FaultPlan
from repro.verify.replay import ReplayScenario, build_runtime

#: With REPRO_CHECK_INVARIANTS=1 every ft run here additionally runs
#: under the recovery invariant checker (CI's model-check job sets it;
#: off by default so the checker's audits never distort perf numbers).
CHECK_INVARIANTS = os.environ.get("REPRO_CHECK_INVARIANTS") == "1"


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
    runtime = build_runtime(ReplayScenario(
        program_seed, cluster_seed, variant=variant,
        lock_algorithm=lock_algorithm))
    run_checked(runtime)  # analytic verify inside


@given(program_seed=st.integers(1, 10_000),
       cluster_seed=st.integers(1, 1000),
       plan_seed=st.integers(1, 10_000),
       failures=st.integers(1, 2))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_program_random_faults(program_seed, cluster_seed,
                                      plan_seed, failures):
    runtime = build_runtime(ReplayScenario(program_seed, cluster_seed,
                                           plan_seed, failures))
    result = run_checked(runtime)  # analytic verify inside
    assert result.recoveries <= failures


def test_random_program_deterministic():
    a = build_runtime(ReplayScenario(42, 7)).run()
    b = build_runtime(ReplayScenario(42, 7)).run()
    assert a.elapsed_us == b.elapsed_us


def test_random_program_targeted_fault_matrix():
    """A small deterministic matrix over kill hooks, so regressions
    reproduce without hypothesis."""
    for hook, occurrence in ((Hooks.RELEASE_COMMITTED, 2),
                             (Hooks.DIFF_PHASE1_DONE, 2),
                             (Hooks.BARRIER_ENTER, 2),
                             (Hooks.LOCK_ACQUIRED, 3)):
        runtime = build_runtime(ReplayScenario(99, 5))
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
    run_checked(build_runtime(ReplayScenario(ps, cs, plan_seed, failures)))
