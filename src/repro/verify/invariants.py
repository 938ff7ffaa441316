"""Protocol invariant auditing at configurable sync points.

:class:`RecoveryInvariantChecker` attaches to a fault-tolerant runtime
*before* the run and audits, from hooks:

* **replica/oracle agreement** -- at every release, barrier and
  completed recovery (and once more at the end of the run), the
  committed copy at each page's primary home, the tentative copy at its
  secondary home, and the shadow oracle must agree bitwise. Pages
  belonging to a release still in flight are excluded: their two-phase
  propagation is allowed to be mid-air, and the pipeline's resumption
  rules guarantee they converge by the next quiescent point.
* **checkpoint atomicity** -- a thread state stored at a backup under
  release ``seq`` must be byte-identical to the state snapshotted when
  that release's interval was committed. This is the invariant whose
  violation caused the 145/1/533 divergence: states shipped at point A
  after the releaser's commit used to include execution that belongs
  to the *next* interval.
* **checkpoint / interval monotonicity** -- per (ward, thread) stored
  checkpoint seqs never regress (a fresh seq-0 seed after migration is
  the only reset); per node committed interval numbers never regress;
  ``published_interval`` never exceeds ``interval_no``.
* **diff accounting** -- every diff send is routed to the phase's
  current home (tentative to the secondary, committed to the primary);
  a diff is never applied more often than it was sent; at the end of
  the run every send to a still-live node was applied at least once,
  and every *published* release's interval is reflected in its pages'
  primary-home version tables (no diff dropped during reassignment).
* **recovery reconciliation** -- recovery must never roll *back* a
  release the oracle saw published (its effects are visible: replaying
  it doubles every RMW in the interval -- the 145/1/475 divergence),
  and no thread may resume from a state checkpointed under a seq past
  the checkpoint horizon or equal to a rolled-back release.
* **barrier-epoch consistency** -- at every barrier reconciliation
  point (recovery step 7b) all live nodes must agree on the merged
  per-barrier generation counts, and no unfinished thread may carry a
  ``("__bar__", bid)`` epoch beyond its node's completed count. A
  thread ahead of its node deadlocks the next generation (the
  145/1/612 divergence).
* **full re-protection** -- at every completed recovery (and at the end
  of the run) every allocated page and lock must again have two
  replicas on distinct live nodes, and every live node's checkpoint
  backup must be a distinct live node holding at least everything the
  node's self-mirror claims durable. This is the contract that lets
  the cluster absorb arbitrary failure *sequences*, not just one.

The checker is pure observer: it subscribes to hooks, installs the
(otherwise inert) per-agent ``write_observer``, and never mutates
protocol state, so an attached checker cannot change simulation
outcomes -- only surface them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster import Hooks
from repro.errors import ProtocolError
from repro.protocol.ft.checkpoint import encode_thread_state
from repro.verify.oracle import ShadowOracle

#: Sync points at which audits run.
ALL_POINTS = ("release", "barrier", "failure", "recovery", "final")

#: Commit snapshots kept per node (covers the double buffer plus
#: recovery re-ships of the newest release).
_SNAPSHOT_KEEP = 4


class InvariantViolation(ProtocolError):
    """A protocol invariant failed an audit."""

    def __init__(self, findings: List["Finding"]) -> None:
        super().__init__("; ".join(str(f) for f in findings))
        self.findings = findings


@dataclass(frozen=True)
class Finding:
    """One observed invariant violation."""

    time_us: float
    invariant: str
    detail: str

    def __str__(self) -> str:
        return (f"[{self.invariant} @ {self.time_us:.2f}us] "
                f"{self.detail}")


class RecoveryInvariantChecker:
    """Audits FT protocol invariants against a shadow oracle."""

    def __init__(self, runtime, points=ALL_POINTS,
                 strict: bool = True) -> None:
        if not runtime.config.protocol.is_ft:
            raise ProtocolError(
                "the invariant checker audits the ft variant only")
        self.runtime = runtime
        self.points = frozenset(points)
        self.strict = strict
        self.violations: List[Finding] = []
        config = runtime.config
        self.oracle = ShadowOracle(config.shared_pages,
                                   config.page_size)
        self.audits_run = 0

        # -- tracking state --------------------------------------------
        #: node -> seq -> (interval, pages) for every commit seen.
        self._commits: Dict[int, Dict[int, Tuple[int, List[int]]]] = {}
        #: node -> {seq: {tid: state blob}} frozen at the commit.
        self._commit_states: Dict[int, Dict[int, Dict[int, bytes]]] = {}
        self._last_interval: Dict[int, int] = {}
        self._last_state_seq: Dict[Tuple[int, int], int] = {}
        self._last_pending_seq: Dict[int, int] = {}
        #: ward -> seq of its last release known complete at a backup.
        self._last_complete_seq: Dict[int, int] = {}
        #: ward -> seq recovery chose to roll back (per recovery).
        self._rolled_back: Dict[int, int] = {}
        #: (writer, seq, page, phase, target) -> count.
        self._sends: Dict[tuple, int] = {}
        self._applies: Dict[tuple, int] = {}

        for agent in runtime.agents:
            agent.write_observer = self._make_observer(agent.node_id)
        hooks = runtime.cluster.hooks
        hooks.on(Hooks.RELEASE_COMMITTED, self._on_commit)
        hooks.on(Hooks.CHECKPOINT_STORED, self._on_checkpoint_stored)
        hooks.on(Hooks.DIFF_SEND, self._on_diff_send)
        hooks.on(Hooks.DIFF_APPLY, self._on_diff_apply)
        hooks.on(Hooks.FAILURE_DETECTED, self._on_failure)
        hooks.on(Hooks.RECOVERY_RECONCILE, self._on_reconcile)
        hooks.on(Hooks.THREAD_RESUMED, self._on_thread_resumed)
        if "release" in self.points:
            hooks.on(Hooks.RELEASE_DONE,
                     lambda node_id, **info: self.audit("release"))
        if "barrier" in self.points:
            hooks.on(Hooks.BARRIER_EXIT,
                     lambda node_id, **info: self.audit("barrier"))
        if "recovery" in self.points:
            hooks.on(Hooks.RECOVERY_DONE,
                     lambda node_id, **info: self.audit("recovery"))

    # ------------------------------------------------------------------
    # Hook feeds
    # ------------------------------------------------------------------

    def _make_observer(self, node_id: int):
        observe = self.oracle.observe_write

        def observer(page: int, offset: int, data: bytes) -> None:
            observe(node_id, page, offset, data)
        return observer

    def _on_commit(self, node_id: int, interval: int, pages,
                   seq: Optional[int] = None, **info) -> None:
        if seq is None:
            return  # base-variant commit; nothing to track
        last = self._last_interval.get(node_id, 0)
        if interval < last:
            self._report("interval-monotonicity",
                         f"node {node_id} committed interval {interval} "
                         f"after {last}")
        self._last_interval[node_id] = interval
        self._commits.setdefault(node_id, {})[seq] = (interval,
                                                      list(pages))
        self.oracle.seal(node_id, seq)
        # Freeze what every local thread's checkpointable state looks
        # like at this exact commit; points A/B must ship these bytes.
        states = {rec.tid: encode_thread_state(rec.ctx.state)
                  for rec in self.runtime.threads
                  if rec.current_node == node_id and not rec.finished}
        per_node = self._commit_states.setdefault(node_id, {})
        per_node[seq] = states
        while len(per_node) > _SNAPSHOT_KEEP:
            del per_node[min(per_node)]

    def _on_checkpoint_stored(self, node_id: int, kind: str, ward: int,
                              seq: int, **info) -> None:
        if kind == "state":
            tid = info["tid"]
            last = self._last_state_seq.get((ward, tid), 0)
            if seq < last and seq != 0:
                self._report(
                    "checkpoint-monotonicity",
                    f"ward {ward} thread {tid} stored checkpoint seq "
                    f"{seq} after seq {last}")
            self._last_state_seq[(ward, tid)] = max(last, seq)
            expected = self._commit_states.get(ward, {}).get(seq)
            if expected is not None and tid in expected \
                    and info["blob"] != expected[tid]:
                self._report(
                    "checkpoint-atomicity",
                    f"ward {ward} thread {tid} checkpoint under seq "
                    f"{seq} differs from the state frozen at that "
                    f"release's commit (post-commit execution leaked "
                    f"into the checkpoint)")
        elif kind == "pending":
            last = self._last_pending_seq.get(ward, 0)
            if seq < last:
                self._report(
                    "checkpoint-monotonicity",
                    f"ward {ward} stored pending release seq {seq} "
                    f"after seq {last}")
            self._last_pending_seq[ward] = max(last, seq)
        elif kind == "complete":
            self.oracle.publish(ward, seq)
            self._last_complete_seq[ward] = max(
                self._last_complete_seq.get(ward, 0), seq)

    def _on_diff_send(self, node_id: int, phase: str, seq: int,
                      interval: int, page: int, target: int,
                      **info) -> None:
        homes = self.runtime.homes
        expected = (homes.secondary_home(page) if phase == "tent"
                    else homes.primary_home(page))
        if target != expected:
            self._report(
                "diff-routing",
                f"node {node_id} sent {phase} diff of page {page} "
                f"(seq {seq}) to node {target}, current "
                f"{'secondary' if phase == 'tent' else 'primary'} "
                f"home is {expected}")
        key = (node_id, seq, page, phase, target)
        self._sends[key] = self._sends.get(key, 0) + 1

    def _on_diff_apply(self, node_id: int, phase: str, writer: int,
                       interval: int, seq: int, page: int,
                       **info) -> None:
        key = (writer, seq, page, phase, node_id)
        count = self._applies.get(key, 0) + 1
        self._applies[key] = count
        if count > self._sends.get(key, 0):
            self._report(
                "diff-duplication",
                f"{phase} diff of page {page} (writer {writer}, seq "
                f"{seq}) applied {count} times at node {node_id} but "
                f"sent {self._sends.get(key, 0)} times")

    def _on_failure(self, failed: int, **info) -> None:
        self.oracle.drop_node(failed)
        if "failure" in self.points:
            self.audit("failure")

    def _on_reconcile(self, failed: int, action: str = "",
                      **info) -> None:
        if action == "rollback":
            seq = info.get("seq")
            if seq is None:
                return
            self._rolled_back[failed] = seq
            if (failed, seq) in self.oracle.published:
                self._report(
                    "published-rollback",
                    f"recovery rolled back release seq {seq} of node "
                    f"{failed} whose effects were already published "
                    f"through point B (replaying it doubles every RMW "
                    f"in the interval)")
        elif action == "barrier-reconcile":
            self._audit_barrier_epochs(info.get("generations") or {})

    def _audit_barrier_epochs(self, generations: Dict[int, int]) -> None:
        """Barrier-epoch consistency at a RECOVERY_RECONCILE point:
        recovery runs at quiescence, so after step 7b every live node
        must hold exactly the merged generation counts and no
        unfinished thread may be ahead of its node."""
        self.audits_run += 1
        failed = self.runtime.homes.failed
        agents = self.runtime.agents
        for agent in agents:
            if agent.node_id in failed:
                continue
            for bid, gen in generations.items():
                have = agent.barrier_done.get(bid, 0)
                if have != gen:
                    self._report(
                        "barrier-agreement",
                        f"after reconciliation node {agent.node_id} "
                        f"counts {have} completed generations of "
                        f"barrier {bid}, merged truth is {gen}")
        for rec in self.runtime.threads:
            if rec.finished or rec.current_node in failed:
                continue
            node_done = agents[rec.current_node].barrier_done
            for key, epoch in rec.ctx.state.items():
                if not (isinstance(key, tuple) and len(key) == 2
                        and key[0] == "__bar__"):
                    continue
                bid = key[1]
                if epoch > node_done.get(bid, 0):
                    self._report(
                        "barrier-epoch",
                        f"thread {rec.tid} on node {rec.current_node} "
                        f"carries barrier {bid} epoch {epoch} beyond "
                        f"its node's completed count "
                        f"{node_done.get(bid, 0)} (the next generation "
                        f"would deadlock)")

    def _on_thread_resumed(self, node_id: int, tid: int = -1,
                           ward: Optional[int] = None,
                           seq: Optional[int] = None,
                           max_valid_seq: Optional[int] = None,
                           **info) -> None:
        if ward is None or seq is None:
            return
        if max_valid_seq is not None and seq > max_valid_seq:
            self._report(
                "resume-horizon",
                f"thread {tid} of node {ward} resumed from checkpoint "
                f"seq {seq} past the valid horizon {max_valid_seq}")
        if self._rolled_back.get(ward) == seq:
            self._report(
                "resume-after-rollback",
                f"thread {tid} of node {ward} resumed from a state "
                f"checkpointed under rolled-back release seq {seq} "
                f"(its pre-rollback progress would replay)")

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------

    def _report(self, invariant: str, detail: str) -> None:
        finding = Finding(self.runtime.engine.now, invariant, detail)
        self.violations.append(finding)
        if self.strict:
            raise InvariantViolation([finding])

    def _inflight_pages(self) -> set:
        skip: set = set()
        for agent in self.runtime.agents:
            for fl in agent._inflight.values():
                skip.update(fl.pages)
        return skip

    def _map_matches_liveness(self) -> bool:
        """Copy audits are meaningful only when detected failures match
        ground truth: between a silent death and its detection the old
        map still routes to frozen stores."""
        cluster = self.runtime.cluster
        failed = self.runtime.homes.failed
        return all(node.alive or node.node_id in failed
                   for node in cluster.nodes)

    def audit(self, point: str) -> None:
        """Run the audits appropriate for ``point`` now."""
        self.audits_run += 1
        self._audit_counters()
        if point != "failure":
            self._audit_copies()
        if point == "recovery":
            self._audit_reprotection()

    def _audit_counters(self) -> None:
        for agent in self.runtime.agents:
            if agent.node_id in self.runtime.homes.failed:
                continue
            if not self.runtime.cluster.node(agent.node_id).alive:
                continue
            if agent.published_interval > agent.interval_no:
                self._report(
                    "publish-bound",
                    f"node {agent.node_id} published interval "
                    f"{agent.published_interval} beyond its interval "
                    f"counter {agent.interval_no}")

    def _audit_copies(self, skip_inflight: bool = True) -> None:
        manager = self.runtime.recovery_manager
        if manager is not None and manager.active is not None:
            return  # mid-recovery state is intentionally inconsistent
        if not self._map_matches_liveness():
            return
        homes = self.runtime.homes
        agents = self.runtime.agents
        skip = self._inflight_pages() if skip_inflight else set()
        for page in homes.allocated_pages():
            if page in skip:
                continue
            oracle = self.oracle.page(page)
            committed = agents[homes.primary_home(page)] \
                .committed.read_page(page)
            if committed != oracle:
                self._report(
                    "oracle-agreement",
                    f"committed copy of page {page} at primary home "
                    f"{homes.primary_home(page)} differs from the "
                    f"shadow oracle")
                continue
            tentative = agents[homes.secondary_home(page)] \
                .tentative.read_page(page)
            if tentative != oracle:
                self._report(
                    "replica-agreement",
                    f"tentative copy of page {page} at secondary home "
                    f"{homes.secondary_home(page)} differs from the "
                    f"committed copy/oracle")

    def _audit_reprotection(self) -> None:
        """Full re-protection after recovery (step 8's contract): every
        allocated page and every lock has its two replicas on distinct
        live nodes, and every live node's shipped checkpoints are held
        by a distinct live backup at least as far as the node's own
        self-mirror claims durable. Audited at every completed recovery
        and once more at the end of the run, this is what turns
        "tolerates one failure" into "tolerates failure sequences":
        each recovery must leave the cluster as protected as it started.
        """
        manager = self.runtime.recovery_manager
        if manager is not None and manager.active is not None:
            return  # intermediate wave of a multi-victim rendezvous
        if not self._map_matches_liveness():
            return
        homes = self.runtime.homes
        agents = self.runtime.agents
        failed = homes.failed

        def live(node: int) -> bool:
            return (node not in failed
                    and self.runtime.cluster.node(node).alive)

        for ring in homes.rings:
            for key in ring.keys():
                primary, secondary = ring.primary(key), ring.secondary(key)
                if primary == secondary or not live(primary) \
                        or not live(secondary):
                    self._report(
                        "re-protection",
                        f"{ring.kind} {key} lacks two distinct live "
                        f"replicas: primary {primary}, secondary "
                        f"{secondary}, failed set {sorted(failed)}")
                    continue
                if ring is not homes.wards:
                    continue
                # A ward is a node's checkpoints: the backup must hold
                # them as far as the node's self-mirror claims durable.
                held = agents[secondary].ckpt_store.max_valid_seq(key)
                mirrored = agents[key].ckpt_mirror.max_valid_seq(key)
                if held < mirrored:
                    self._report(
                        "re-protection",
                        f"node {key}'s backup {secondary} holds release "
                        f"records only through seq {held}, the node's "
                        f"self-mirror claims seq {mirrored} durable")

    # ------------------------------------------------------------------
    # End-of-run audit
    # ------------------------------------------------------------------

    def finalize(self) -> List[Finding]:
        """Audit the terminal state; returns (and in strict mode raises
        on) all findings. Call after ``runtime.run()``."""
        if "final" in self.points:
            self._audit_final()
        if self.violations and self.strict:
            raise InvariantViolation(self.violations)
        return self.violations

    def _audit_final(self) -> None:
        inflight = [agent.node_id for agent in self.runtime.agents
                    if agent._inflight
                    and agent.node_id not in self.runtime.homes.failed]
        if inflight:
            self._report("pipeline-drained",
                         f"releases still in flight at end of run on "
                         f"nodes {inflight}")
        unpublished = [n for n in self.oracle.unpublished_nodes()
                       if n not in self.runtime.homes.failed]
        if unpublished:
            self._report(
                "all-published",
                f"nodes {unpublished} finished with writes never "
                f"published through point B")
        self._audit_counters()
        self._audit_copies(skip_inflight=False)
        self._audit_reprotection()
        self._audit_version_coverage()
        self._audit_no_dropped_diffs()

    def _audit_version_coverage(self) -> None:
        """Every published release's interval must be present in its
        pages' primary-home version tables -- the home absorbed (or
        recovery reconstructed) every published diff."""
        homes = self.runtime.homes
        agents = self.runtime.agents
        for (writer, seq) in sorted(self.oracle.published):
            commit = self._commits.get(writer, {}).get(seq)
            if commit is None:
                continue
            interval, pages = commit
            for page in pages:
                primary = agents[homes.primary_home(page)]
                have = primary.page_versions.get(page, {}).get(writer, 0)
                if have < interval:
                    self._report(
                        "no-dropped-diff",
                        f"published release seq {seq} of node {writer} "
                        f"(interval {interval}) never reached page "
                        f"{page}'s primary home {primary.node_id} "
                        f"(version table has {have})")

    def _audit_no_dropped_diffs(self) -> None:
        failed = self.runtime.homes.failed
        for key, sent in sorted(self._sends.items()):
            writer, seq, page, phase, target = key
            if target in failed or writer in failed:
                continue  # in-flight loss at a dead node is expected
            if self._applies.get(key, 0) == 0:
                self._report(
                    "no-dropped-diff",
                    f"{phase} diff of page {page} (writer {writer}, "
                    f"seq {seq}) was sent to live node {target} "
                    f"{sent}x but never applied")

    def assert_clean(self) -> None:
        """Finalize and fail loudly on any finding (strict or not)."""
        strict, self.strict = self.strict, False
        try:
            findings = self.finalize()
        finally:
            self.strict = strict
        if findings:
            raise InvariantViolation(findings)
