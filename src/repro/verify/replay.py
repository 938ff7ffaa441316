"""Deterministic trace recording, replay, and divergence bisection.

The simulator is bit-deterministic in its seeds, so a failing run can
be replayed exactly -- and, because it can be replayed, it can be
*bisected*: re-execute the same scenario up to successively chosen
event timestamps from a recorded trace, audit protocol state against
the shadow oracle at each stop, and binary-search for the first event
at which the state departs from the oracle.

Workflow (also exposed as ``repro replay``)::

    scenario = ReplayScenario(program_seed=145, cluster_seed=1,
                              plan_seed=533, failures=2)
    record_trace(scenario, "divergence.jsonl")     # full event trace
    outcome = replay_trace("divergence.jsonl")     # re-run + bisect
    print(outcome["first_divergence"])

Audits at an arbitrary stop time are *transient-aware*: pages of
releases still in flight are excluded, and stops that land inside a
recovery window (or between a silent death and its detection) report
"not auditable" and are treated as clean for the search, so the
bisection converges on the first *auditable* divergence.

Every full re-execution runs under a per-run simulated-time budget
(``sim_budget_us``): a regression back into deadlock generates poll
events forever, and an event-starved hang would otherwise park the
recorder indefinitely. A run that exhausts its budget with unfinished
threads is classified as a ``hang`` (and reported with the stuck
thread ids) instead of a state ``mismatch``; hangs skip the oracle
bisection, whose probes audit memory state, not liveness.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields
from typing import List, Optional

from repro.apps.randomprog import RandomProgram
from repro.config import ClusterConfig, ProtocolParams
from repro.harness.faultplan import FaultPlan
from repro.harness.runner import SvmRuntime
from repro.metrics.trace import FULL_EVENTS, ProtocolTrace, load_jsonl
from repro.verify.invariants import Finding, RecoveryInvariantChecker


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
    if scenario.plan_seed is not None and scenario.failures > 0:
        FaultPlan.random_plan(
            random.Random(scenario.plan_seed), scenario.num_nodes,
            scenario.failures,
            during_recovery_prob=scenario.during_recovery_prob
        ).apply(runtime.cluster)
    return runtime


#: Default per-run simulated-time budget. Generously above any clean
#: model-check run (they finish in tens of milliseconds of simulated
#: time) so only genuine hangs trip it.
DEFAULT_SIM_BUDGET_US = 1_000_000.0


def run_capped(runtime, sim_budget_us: Optional[float]) -> dict:
    """Run to the end or to the budget, whichever comes first.

    An analytic-verify or protocol error is captured, not raised.
    ``outcome`` is ``clean``, ``hang`` (the budget ran out with the
    ``unfinished`` threads still going) or ``mismatch``."""
    error = None
    try:
        runtime.run(max_sim_us=sim_budget_us)
    except Exception as exc:  # noqa: BLE001 -- reported, not hidden
        error = f"{type(exc).__name__}: {exc}"
    unfinished = [rec.tid for rec in runtime.threads if not rec.finished]
    if error is None:
        outcome = "clean"
    elif unfinished and sim_budget_us is not None \
            and runtime.engine.now >= sim_budget_us:
        outcome = "hang"
    else:
        outcome = "mismatch"
    return {"error": error, "outcome": outcome, "unfinished": unfinished,
            "elapsed_us": runtime.engine.now}


def record_trace(scenario: ReplayScenario, path,
                 sim_budget_us: Optional[float] = DEFAULT_SIM_BUDGET_US
                 ) -> dict:
    """Run the scenario once, recording the full event trace to
    ``path`` (JSONL). Returns the header written: the scenario, what
    :func:`run_capped` saw, and the event count."""
    runtime = build_runtime(scenario)
    trace = ProtocolTrace(runtime.cluster, events=FULL_EVENTS,
                          capacity=500_000)
    header = {"scenario": scenario.to_dict(),
              **run_capped(runtime, sim_budget_us), "events": len(trace)}
    trace.export_jsonl(path, header=header)
    return header


def probe(scenario: ReplayScenario,
          until_us: float) -> Optional[List[Finding]]:
    """Re-run deterministically up to ``until_us`` (inclusive) and
    audit against a freshly maintained oracle.

    Returns the findings (empty list == clean), or None when the
    stopped state is not auditable (mid-recovery, or a node has died
    but its failure is not yet detected)."""
    runtime = build_runtime(scenario)
    checker = RecoveryInvariantChecker(runtime, points=(), strict=False)
    runtime.start()
    runtime.engine.run(until=until_us)
    manager = runtime.recovery_manager
    if manager is not None and manager.active is not None:
        return None
    if not checker._map_matches_liveness():
        return None
    checker.audit("probe")
    return checker.violations


def bisect_divergence(scenario: ReplayScenario,
                      events) -> Optional[dict]:
    """Find the first recorded event timestamp at which a deterministic
    re-run fails the oracle audit.

    ``events`` is the recorded trace (TraceEvent list). Returns None if
    even the final stop audits clean, else a dict with the divergence
    time, the findings there, the trace events at that timestamp, and
    the number of re-runs used."""
    times = sorted({ev.time_us for ev in events})
    if not times:
        return None
    probes = 0

    def dirty(index: int) -> bool:
        nonlocal probes
        probes += 1
        findings = probe(scenario, times[index])
        return bool(findings)

    if not dirty(len(times) - 1):
        return None
    lo, hi = 0, len(times) - 1  # invariant: hi is dirty
    if dirty(0):
        hi = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if dirty(mid):
            hi = mid
        else:
            lo = mid + 1
    t = times[hi]
    findings = probe(scenario, t) or []
    return {
        "time_us": t,
        "findings": findings,
        "events": [ev for ev in events if ev.time_us == t],
        "probes": probes,
    }


def replay_trace(path,
                 sim_budget_us: Optional[float] = DEFAULT_SIM_BUDGET_US
                 ) -> dict:
    """Re-execute a recorded trace end to end with the invariant
    checker attached; on divergence, bisect to the first bad event.

    Returns ``{"scenario", "error", "outcome", "unfinished",
    "elapsed_us", "findings", "first_divergence"}``. ``outcome`` is
    ``clean``, ``mismatch``, or ``hang`` (the run exhausted its
    sim-time budget with the listed threads unfinished). Only
    mismatches are bisected: the probes audit memory against the
    oracle, and a deadlocked run's memory state is typically
    consistent -- what is wrong is liveness, which the stuck thread
    ids and the stall watchdog localize instead."""
    header, events = load_jsonl(path)
    if header is None or "scenario" not in header:
        raise ValueError(f"{path} has no scenario header; was it "
                         "written by record_trace / repro replay "
                         "--record?")
    scenario = ReplayScenario.from_dict(header["scenario"])
    runtime = build_runtime(scenario)
    checker = RecoveryInvariantChecker(runtime, strict=False)
    run = run_capped(runtime, sim_budget_us)
    checker.finalize()
    first = None
    if run["outcome"] == "mismatch" or checker.violations:
        first = bisect_divergence(scenario, events)
    return {"scenario": scenario, **run, "findings": checker.violations,
            "first_divergence": first}
