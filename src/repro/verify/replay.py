"""Model-check cases: build one, run it under the checker, and bisect
a divergence.

The simulator is bit-deterministic in its seeds, so a failing run can
be re-run exactly -- and, because it can be re-run, it can be
*bisected*: re-execute the same scenario up to successively chosen
event timestamps of the run's own event log, audit protocol state
against the shadow oracle at each stop, and binary-search for the
first event at which the state departs from the oracle.

Workflow (also exposed as ``repro replay``)::

    run, first = replay(ReplayScenario(program_seed=145, cluster_seed=1,
                                       plan_seed=533, failures=2))
    print(run.outcome, first)

:func:`run_case` is the one place a case is run, bounded and judged:
the seed sweep's ``model_check`` runner and ``repro replay`` both call
it. Every case runs under a simulated-time cap (:data:`CASE_CAP_US`):
a regression back into deadlock generates poll events forever. A run
that exhausts its cap with unfinished threads is a ``hang`` (reported
with the stuck thread ids) instead of a state ``mismatch``; hangs skip
the bisection, whose probes audit memory state, not liveness.

Audits at an arbitrary stop time are *transient-aware*: pages of
releases still in flight are excluded, and stops that land inside a
recovery window (or between a silent death and its detection) report
"not auditable" and are treated as clean for the search, so the
bisection converges on the first *auditable* divergence. A stop at or
after which the run has raised is dirty.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields
from typing import List, Optional, Tuple

from repro.apps.randomprog import RandomProgram
from repro.config import ClusterConfig, ProtocolParams
from repro.errors import ConfigError
from repro.harness.faultplan import FaultPlan
from repro.harness.runner import RunResult, SvmRuntime
from repro.metrics.trace import FULL_EVENTS, ProtocolTrace
from repro.verify.invariants import Finding, RecoveryInvariantChecker

#: Simulated-time cap of every model-check case. Clean cases finish in
#: a few milliseconds of simulated time, so only genuine hangs trip it.
CASE_CAP_US = 200_000.0


@dataclass(frozen=True)
class ReplayScenario:
    """Everything needed to re-create one model-check run exactly."""

    program_seed: int
    cluster_seed: int
    plan_seed: Optional[int] = None
    failures: int = 0
    #: Probability that a chained failure strikes *during* the previous
    #: failure's recovery instead of after it (0.0 keeps the historical
    #: draw order, so old scenarios replay bit-identically).
    during_recovery_prob: float = 0.0
    variant: str = "ft"
    lock_algorithm: str = "polling"
    num_nodes: int = 4
    threads_per_node: int = 1

    def __post_init__(self) -> None:
        # A plan seed with no failures stays legal: it is the
        # failure-free twin of a faulted case.
        if self.failures < 0:
            raise ConfigError(f"failures must be >= 0, got {self.failures}")
        if self.failures and self.plan_seed is None:
            raise ConfigError(
                f"{self.failures} failure(s) need a plan seed: without "
                "one no failure is injected")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReplayScenario":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def build_runtime(scenario: ReplayScenario) -> SvmRuntime:
    """A runtime + workload (+ fault plan) for the scenario: a small
    cluster (64 pages of 512 bytes, 64 locks) running a three-phase
    RandomProgram -- the shape of every model-check run."""
    config = ClusterConfig(
        num_nodes=scenario.num_nodes,
        threads_per_node=scenario.threads_per_node,
        shared_pages=64, num_locks=64, page_size=512,
        seed=scenario.cluster_seed,
        protocol=ProtocolParams(variant=scenario.variant,
                                lock_algorithm=scenario.lock_algorithm))
    workload = RandomProgram(
        program_seed=scenario.program_seed, phases=3,
        actions_per_phase=4, counters=3, slots_per_thread=6,
        nthreads_hint=scenario.num_nodes * scenario.threads_per_node)
    runtime = SvmRuntime(config, workload)
    if scenario.failures:
        FaultPlan.random_plan(
            random.Random(scenario.plan_seed), scenario.num_nodes,
            scenario.failures,
            during_recovery_prob=scenario.during_recovery_prob
        ).apply(runtime.cluster)
    return runtime


@dataclass(frozen=True)
class CaseRun:
    """What one checked, capped run came to."""

    #: ``clean``, ``hang`` (the cap ran out with ``unfinished`` threads
    #: still going) or ``mismatch`` (any other error).
    outcome: str
    #: The invariant checker's findings (none without one: base runs).
    findings: List[Finding]
    #: ``"Type: message"`` of what the run raised, or None.
    error: Optional[str]
    unfinished: List[int]
    #: None when the run raised.
    result: Optional[RunResult]


def run_case(runtime: SvmRuntime,
             max_sim_us: Optional[float] = CASE_CAP_US) -> CaseRun:
    """Run a built (not yet started) runtime to its end or to the cap,
    with the invariant checker attached when it runs the ft protocol.

    An analytic-verify or protocol error is captured, not raised."""
    checker = (RecoveryInvariantChecker(runtime, strict=False)
               if runtime.config.protocol.is_ft else None)
    result, error = None, None
    try:
        result = runtime.run(max_sim_us=max_sim_us)
    except Exception as exc:  # noqa: BLE001 -- reported, not hidden
        error = f"{type(exc).__name__}: {exc}"
    findings = checker.finalize() if checker is not None else []
    unfinished = [rec.tid for rec in runtime.threads if not rec.finished]
    if error is None:
        outcome = "clean"
    elif unfinished and max_sim_us is not None \
            and runtime.engine.now >= max_sim_us:
        outcome = "hang"
    else:
        outcome = "mismatch"
    return CaseRun(outcome, findings, error, unfinished, result)


def probe(scenario: ReplayScenario,
          until_us: float) -> Optional[List[Finding]]:
    """Re-run deterministically up to ``until_us`` (inclusive) and
    audit against a freshly maintained oracle.

    Returns the findings (empty list == clean), or None when the
    stopped state is not auditable (mid-recovery, or a node has died
    but its failure is not yet detected). A run that raises by the stop
    returns what it raised as its one finding."""
    runtime = build_runtime(scenario)
    checker = RecoveryInvariantChecker(runtime, points=(), strict=False)
    try:
        runtime.start()
        runtime.engine.run(until=until_us)
    except Exception as exc:  # noqa: BLE001 -- a dirty stop
        return [Finding(runtime.engine.now, "raised",
                        f"{type(exc).__name__}: {exc}")]
    manager = runtime.recovery_manager
    if manager is not None and manager.active is not None:
        return None
    if not checker._map_matches_liveness():
        return None
    checker.audit("probe")
    return checker.violations


def bisect_divergence(scenario: ReplayScenario,
                      events) -> Optional[dict]:
    """Find the first event timestamp at which a deterministic re-run
    fails the oracle audit.

    ``events`` is the run's event log (TraceEvent list). Returns None
    if even the final stop audits clean, else a dict with the
    divergence time, the findings there, the events at that timestamp,
    and the number of re-runs used (at most ``ceil(log2 N) + 1`` for N
    distinct timestamps)."""
    times = sorted({ev.time_us for ev in events})
    if not times:
        return None
    found = {}

    def dirty(index: int) -> bool:
        if index not in found:
            found[index] = probe(scenario, times[index]) or []
        return bool(found[index])

    if not dirty(len(times) - 1):
        return None
    lo, hi = 0, len(times) - 1  # invariant: hi is dirty
    while lo < hi:
        mid = (lo + hi) // 2
        if dirty(mid):
            hi = mid
        else:
            lo = mid + 1
    t = times[hi]
    return {
        "time_us": t,
        "findings": found[hi],
        "events": [ev for ev in events if ev.time_us == t],
        "probes": len(found),
    }


def replay(scenario: ReplayScenario
           ) -> Tuple[CaseRun, Optional[dict]]:
    """Run the scenario once under the checker with its full event log
    attached; on a mismatch or a finding, bisect over that log's event
    times to the first auditable divergence (None when there is none,
    or when the run is clean or hung)."""
    runtime = build_runtime(scenario)
    trace = ProtocolTrace(runtime.cluster, events=FULL_EVENTS,
                          capacity=500_000)
    run = run_case(runtime)
    first = None
    if run.outcome != "hang" and (run.error or run.findings):
        first = bisect_divergence(scenario, trace.events())
    return run, first
