"""Recovery-invariant checking and deterministic trace replay.

This package is the correctness safety net around the fault-tolerant
protocol (see docs/RECOVERY.md):

* :class:`ShadowOracle` -- a shadow shared memory maintained entirely
  outside the protocol, fed by raw application stores and committed in
  point-B (publication) order;
* :class:`RecoveryInvariantChecker` -- audits replica agreement,
  checkpoint/interval monotonicity, diff accounting, and checkpoint
  atomicity at configurable sync points;
* :mod:`repro.verify.replay` -- runs and judges one model-check case
  under the checker, and bisects a diverging run to the first
  auditable departure from the oracle.

Nothing here is attached to an application run: a checker rides only
on model-check cases (the seed sweep, ``repro replay``) and on the
tests that construct one, so the simulator's hot paths are unaffected
in normal runs.
"""

from repro.verify.invariants import (
    InvariantViolation,
    RecoveryInvariantChecker,
)
from repro.verify.oracle import ShadowOracle

__all__ = [
    "InvariantViolation",
    "RecoveryInvariantChecker",
    "ShadowOracle",
]
