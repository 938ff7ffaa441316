"""Randomized model check: random SPMD programs x protocols x faults.

Every generated program computes its expected final memory
analytically; any lost RMW, doubled replay, stale read, or broken
recovery shows up as a verification failure. This is the broadest
net in the suite -- the enumerated tests pin known cases, this one
hunts unknown ones. Every case is run and judged by ``run_case``, so
every ft run is also audited by the recovery invariant checker.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Hooks
from repro.harness.faultplan import FaultPlan
from repro.verify.replay import ReplayScenario, build_runtime
from tests.integration.test_run_capped import run_clean


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
    run_clean(runtime)


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
    assert run_clean(runtime).recoveries <= failures


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
        run_clean(runtime)


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
    run_clean(build_runtime(ReplayScenario(ps, cs, plan_seed, failures)))
