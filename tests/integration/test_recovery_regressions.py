"""Enumerated recovery regressions (no Hypothesis).

Pins the exact fault-injection seed combinations that have diverged in
the past, so the failures reproduce byte-for-byte without shrinking or
database state. Each case is run and judged by ``run_case``, with the
recovery invariant checker attached: a regression must fail the
protocol invariants, not just the workload's analytic verify.

The flagship case is 145/1/533: node 0 committed interval 7 (release
seq 9), thread 3 then ran on and completed its phase-1 write of slot
(3, 4) inside the *next* (open) interval -- but its advanced state was
checkpointed under seq 9. When node 0 died during seq 10, recovery
rolled the data back to seq 9 and resumed thread 3 from the advanced
state: the slot write was gone, yet the thread believed it had done it.
Fixed by freezing thread state blobs atomically with the interval
commit (see docs/RECOVERY.md).
"""

import numpy as np
import pytest

from repro.errors import ApplicationError
from repro.verify.replay import ReplayScenario, build_runtime
from tests.integration.test_run_capped import run_clean


def test_regression_145_1_533_checkpoint_atomicity():
    """The 145/1/533 divergence: slot (3, 4) must survive two failures."""
    runtime = build_runtime(ReplayScenario(145, 1, 533, 2))
    assert run_clean(runtime).recoveries == 2
    # The exact datum that used to be lost: thread 3's last write to
    # its slot 4 in the final phase.
    workload = runtime.workload
    slot = runtime.debug_read_array(workload._slot_addr(3, 4),
                                    np.int64, 1)[0]
    assert slot == 610432392


@pytest.mark.parametrize("ps,cs,plan_seed,failures", [
    (145, 1, 533, 2),    # the checkpoint-atomicity case, re-run via
                         # the replay scenario path
    (8988, 987, 1368, 1),
    (3451, 745, 1001, 1),
    (3613, 381, 2794, 2),
    (1377, 959, 1717, 2),
])
def test_known_seed_combinations_stay_clean(ps, cs, plan_seed, failures):
    scenario = ReplayScenario(program_seed=ps, cluster_seed=cs,
                              plan_seed=plan_seed, failures=failures)
    assert run_clean(build_runtime(scenario)).recoveries <= failures


# Formerly-divergent combinations found by
# tests/tools/sweep_fault_seeds.py (plan seeds 434..633 x failures
# {1,2} at program/cluster seed 145/1). All four are fixed and pinned
# here as strict regressions; docs/RECOVERY.md tables their fixes.
SWEPT_DIVERGENT = [
    # Was a doubled RMW (counters [301, 67, 0] != [247, 67, 0]): the
    # ward's checkpoint history died with its backup, so its own later
    # failure rolled back -- and replayed -- a published release.
    # Fixed by the checkpoint self-mirror (recovery step 6b).
    (145, 1, 475, 2),
    # Was a recovery deadlock: the dead node's in-flight lock-vector
    # deposit landed *after* recovery's clear and resurrected its
    # slot. Fixed by unmapping (shunning) failed senders at detection.
    (145, 1, 537, 2),
    # Was a recovery deadlock: barrier generation counts diverged
    # between survivors and a checkpoint-restored thread. Fixed by the
    # barrier reconciliation pass (recovery step 7b) + the self-mirror.
    (145, 1, 612, 2),
    # Was a lost RMW found by hypothesis (counters [34, 0, 5] !=
    # [34, 0, 84]): a thread restored from its pre-init-barrier
    # checkpoint replayed init_kernel's zeroing writes over published
    # counters. Fixed by init-progress markers in RandomProgram.
    (180, 1, 3826, 2),
]


@pytest.mark.parametrize("ps,cs,plan_seed,failures", SWEPT_DIVERGENT)
def test_swept_divergent_seeds(ps, cs, plan_seed, failures):
    # A regression back into deadlock would generate poll events
    # forever; run_case's cap turns it into a deterministic hang.
    run_clean(build_runtime(ReplayScenario(ps, cs, plan_seed, failures)))


# Open divergences: found by test_random_program_random_faults, not
# fixed yet (docs/RECOVERY.md, "Open divergences", has the one-line
# replays). ``strict``: the recovery fix that clears one fails this
# test until its tuple moves to the clean list above.
OPEN_DIVERGENT = [
    # Doubled RMW: counters [166, 44, 352] != [123, 44, 271].
    (2392, 1, 761, 2),
    # Stale read: thread 2 phase 0 read slot (1,2) = 802221872, legal {0}.
    (1, 1, 2737, 2),
]


@pytest.mark.xfail(strict=True, raises=ApplicationError,
                   reason="latent recovery divergence, not fixed yet")
@pytest.mark.parametrize("ps,cs,plan_seed,failures", OPEN_DIVERGENT)
def test_open_divergent_seeds(ps, cs, plan_seed, failures):
    build_runtime(ReplayScenario(
        program_seed=ps, cluster_seed=cs, plan_seed=plan_seed,
        failures=failures)).run(max_sim_us=200_000.0)
