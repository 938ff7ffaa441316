"""Declarative failure plans.

A :class:`FaultPlan` is a reproducible schedule of fail-stop events —
time-based, protocol-point-based, or chained (armed when the previous
recovery completes) — armed on a cluster in one call. It is the only
way a failure is injected: the CLI, the benchmarks, the model check and
the tests all describe each kill as one :class:`FailureSpec`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster import Cluster, Hooks
from repro.errors import ConfigError
from repro.sim import PRIORITY_URGENT

#: Protocol points that make interesting kill sites.
INTERESTING_HOOKS = (
    Hooks.LOCK_ACQUIRED,
    Hooks.LOCK_RELEASED,
    Hooks.RELEASE_COMMITTED,
    Hooks.DIFF_PHASE1_DONE,
    Hooks.DIFF_PHASE2_START,
    Hooks.CHECKPOINT_A,
    Hooks.CHECKPOINT_B,
    Hooks.BARRIER_ENTER,
    Hooks.PAGE_FAULT,
)
#: A random plan's kill site is one of the first MAX_OCCURRENCE hits
#: of its hook, MAX_DELAY_US or less after it.
MAX_OCCURRENCE = 6
MAX_DELAY_US = 20.0


@dataclass(frozen=True)
class FailureSpec:
    """One fail-stop event.

    Exactly one of ``at_time`` / ``hook`` must be set; a hook-based kill
    fires ``delay`` (>= 0) us after the ``occurrence``-th (>= 1) firing.
    ``chained`` means the spec is armed only after the previous spec's
    recovery completes (the paper's multiple-but-not-simultaneous
    regime).

    ``during`` schedules the kill to land *while a previous spec's
    recovery is still in progress* (the regime the paper does not
    tolerate, which the extended coordinator does): the spec is armed
    up front and counts ``hook`` firings from *any* node, so plans use
    ``hook=Hooks.RECOVERY_START`` with ``occurrence=k`` to strike
    ``delay`` microseconds into the k-th recovery wave.
    """

    victim: int
    at_time: Optional[float] = None
    hook: Optional[str] = None
    occurrence: int = 1
    delay: float = 0.0
    chained: bool = False
    during: bool = False

    def __post_init__(self) -> None:
        if (self.at_time is None) == (self.hook is None):
            raise ConfigError(
                "FailureSpec needs exactly one of at_time / hook")
        if self.during and self.hook is None:
            raise ConfigError(
                "during-recovery FailureSpec must be hook-based")
        if self.during and self.chained:
            raise ConfigError(
                "FailureSpec cannot be both chained (waits for recovery "
                "to finish) and during (strikes before it finishes)")
        # Either would arm a kill that can never fire: the count starts
        # at 1, and the engine refuses to schedule into the past.
        if self.occurrence < 1:
            raise ConfigError(
                f"FailureSpec occurrence must be >= 1: {self.occurrence}")
        if self.delay < 0:
            raise ConfigError(
                f"FailureSpec delay must be >= 0 us: {self.delay}")

    def describe(self) -> str:
        where = (f"t={self.at_time}" if self.at_time is not None
                 else f"{self.hook}#{self.occurrence}+{self.delay}us")
        chain = " (chained)" if self.chained else ""
        during = " (during recovery)" if self.during else ""
        return f"kill node {self.victim} at {where}{chain}{during}"


@dataclass
class KillRecord:
    """One armed spec: its victim, and the simulated time the victim
    fail-stopped (None until, and unless, the kill fires)."""

    node_id: int
    fired_at: Optional[float] = None


@dataclass
class FaultPlan:
    """An ordered set of failures to inject into one run."""

    specs: List[FailureSpec] = field(default_factory=list)

    def describe(self) -> str:
        return "; ".join(spec.describe() for spec in self.specs) \
            or "(no failures)"

    def apply(self, cluster: Cluster) -> List[KillRecord]:
        """Arm the plan on ``cluster``; returns one record per armed
        spec, in arming order (a chained spec's record is appended when
        the previous recovery arms it).

        A time-based spec schedules its kill at ``at_time``; a hook-based
        one counts the victim's firings of ``hook`` (any node's when
        ``during``) and schedules the kill ``delay`` us after the
        ``occurrence``-th. Kills run at urgent priority and skip a
        victim that is already dead.

        Recovery runs on polling locks only (the paper's choice, see
        ``QueueingLocks``): a plan with a failure in it is refused on a
        cluster running any other lock algorithm."""
        lock_algorithm = cluster.config.protocol.lock_algorithm
        if self.specs and lock_algorithm != "polling":
            raise ConfigError(
                f"cannot inject failures with {lock_algorithm} locks: "
                "recovery needs polling locks")
        for spec in self.specs:
            if not 0 <= spec.victim < len(cluster.nodes):
                raise ConfigError(
                    f"cannot kill node {spec.victim}: the cluster has "
                    f"nodes 0..{len(cluster.nodes) - 1}")
        engine, hooks = cluster.engine, cluster.hooks
        records: List[KillRecord] = []

        def arm(spec: FailureSpec) -> None:
            record = KillRecord(spec.victim)
            records.append(record)

            def fire() -> None:
                if cluster.node(spec.victim).alive:
                    record.fired_at = engine.now
                    cluster.fail_node(spec.victim)

            if spec.at_time is not None:
                engine.schedule(spec.at_time - engine.now, fire,
                                priority=PRIORITY_URGENT)
                return
            seen = 0

            def on_hook(node_id: int, **info) -> None:
                nonlocal seen
                if not spec.during and node_id != spec.victim:
                    return
                seen += 1
                if seen == spec.occurrence:
                    hooks.off(spec.hook, on_hook)
                    engine.schedule(spec.delay, fire,
                                    priority=PRIORITY_URGENT)

            hooks.on(spec.hook, on_hook)

        # ``during`` specs arm up front alongside truly-immediate ones:
        # they wait on recovery-wave hooks themselves, and arming them
        # from RECOVERY_DONE would be too late by construction.
        for spec in self.specs:
            if not spec.chained:
                arm(spec)
        pending = [s for s in self.specs if s.chained]

        def on_recovery_done(node_id, **info) -> None:
            if not info.get("final", True):
                # Per-victim DONE inside a multi-victim rendezvous:
                # chained specs wait for the full release.
                return
            if not pending:
                return
            arm(pending.pop(0))

        if pending:
            hooks.on(Hooks.RECOVERY_DONE, on_recovery_done)
        return records

    @classmethod
    def single(cls, victim: int, hook: str, occurrence: int = 1,
               delay: float = 0.0) -> "FaultPlan":
        return cls([FailureSpec(victim=victim, hook=hook,
                                occurrence=occurrence, delay=delay)])

    @classmethod
    def random_plan(cls, rng: random.Random, num_nodes: int,
                    failures: int = 1,
                    during_recovery_prob: float = 0.0) -> "FaultPlan":
        """A reproducible random plan.

        Victims are distinct; failures after the first are chained
        (armed when the previous recovery fully completes) unless
        ``during_recovery_prob`` turns them into during-recovery
        strikes that land ``delay`` us into the previous failure's
        recovery wave. At least two nodes survive.

        Draw-order compatibility: with ``during_recovery_prob`` at 0
        this consumes exactly the same RNG draws as it always did, so
        existing seeded plans are bit-identical; ``during_recovery_prob
        > 0`` adds one draw per chained spec.
        """
        failures = min(failures, num_nodes - 2)
        victims = rng.sample(range(num_nodes), failures)
        specs = []
        for index, victim in enumerate(victims):
            hook = rng.choice(list(INTERESTING_HOOKS))
            occurrence = rng.randint(1, MAX_OCCURRENCE)
            delay = rng.uniform(0.0, MAX_DELAY_US)
            during = False
            if during_recovery_prob > 0.0 and index > 0:
                during = rng.random() < during_recovery_prob
            if during:
                # Strike mid-recovery: count recovery waves from any
                # node; the index-th wave is the previous spec's.
                specs.append(FailureSpec(
                    victim=victim, hook=Hooks.RECOVERY_START,
                    occurrence=index, delay=delay, during=True))
            else:
                specs.append(FailureSpec(
                    victim=victim, hook=hook, occurrence=occurrence,
                    delay=delay, chained=index > 0))
        return cls(specs)
