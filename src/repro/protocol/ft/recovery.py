"""Failure recovery orchestration (paper section 4.5).

When any thread detects a node failure (a communication error or a
heart-beat timeout), recovery proceeds in the phases the paper
describes:

1. **Global rendezvous** -- every live application thread parks (in
   flight barriers are aborted; local waits count as quiescent since
   the waited-on thread itself parks). This realizes the precondition
   that no update propagation is outstanding anywhere except at the
   failed node.
2. **Reconfiguration** -- every node excludes the failed node from its
   (deterministic) home map: pages and locks get new primary/secondary
   homes, always on distinct live nodes.
3. **Replica reconciliation** -- the failed node's last release is
   rolled *forward* (its point-B timestamp was saved: apply its saved
   diffs to the surviving/new home copies) or *backward* (undo its
   partial tentative updates). Un-published releases of *surviving*
   nodes are also rewound to their phase-1 start so their retries
   re-propagate cleanly against the new homes.
4. **Re-replication** -- pages and locks that lost one replica get a
   fresh second replica, and wards whose checkpoint backup died get a
   new backup seeded from their self-mirror. Replacement replicas are
   *elected* to spread load over all survivors (the ring alone would
   pile everything the dead node hosted onto its successor) by one
   election, run over each
   :class:`~repro.protocol.homes.ReplicaRing` of the home map, so
   every node derives the same placement.
5. **Global state exchange** -- a barrier-equivalent merge of vector
   timestamps (capped at each node's *published* interval) and write
   notices, including the failed node's mirrored interval log, so that
   every live node has invalidated everything it must.
6. **Thread resumption** -- the failed node's threads are re-created on
   its backup node from their latest complete checkpoints and
   immediately re-checkpointed to the new backup.

**Multiple failures.** Unlike the paper's prose (which only promises
tolerance of failure sequences with full recovery in between), the
coordinator survives *arbitrary sequences*: a node dying while a
recovery is in progress is absorbed into the same rendezvous as an
additional victim, and victims are recovered wave by wave in detection
order. Two structural properties make this sound:

* every mutation of protocol state during recovery happens inside an
  atomic zero-sim-time block; deaths can only land at ``yield`` points,
  *after* a consistent (and, state-wise, fully re-protected) snapshot
  was installed, so each wave starts from intact replicas;
* victims queued together are excluded from the home map *in one
  batch* before any of them is reconciled, so no wave ever routes a
  read or a replica to a sibling corpse.

What genuinely cannot be survived -- both replicas of a page or lock
dying together, or a victim dying together with its checkpoint
backup -- is detected by an explicit survivability audit, which raises
:class:`UnrecoverableFailure` with the exact pair that was lost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.apps.base import AppContext
from repro.cluster import Hooks
from repro.config import INVALIDATE_PER_PAGE_US, checkpoint_us, copy_time_us
from repro.errors import RecoveryError, UnrecoverableFailure
from repro.protocol.agent import Operation
from repro.protocol.ft.checkpoint import encode_thread_state
from repro.protocol.ft.protocol import STAGE_PHASE1, STAGE_POINT_B
from repro.protocol.locks import PollingLocks
from repro.protocol.signals import RecoverySignal
from repro.protocol.timestamps import VectorTimestamp
from repro.sim import Event


class RecoveryManager:
    """Cluster-wide recovery coordinator.

    Host-level object (one per runtime): the real system computes all
    of this independently-but-identically on every live node from
    deterministic inputs; centralizing it in the simulator changes no
    observable behaviour, and its costs are charged to simulated time.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        self.recoveries = 0
        self.last_recovery_us: float = 0.0
        #: The victim whose wave is currently being processed (the
        #: whole extended recovery counts as "active" until the final
        #: rendezvous release).
        self.active: Optional[int] = None
        self.recovered: Set[int] = set()
        #: Victims of the recovery in progress, in detection order. The
        #: head started the rendezvous; later entries are cascade
        #: victims absorbed into it.
        self._victim_queue: List[int] = []
        #: node -> sim time its failure was detected; feeds the
        #: redundancy-exposure metric (detection -> REREPLICATE_DONE).
        self._detected_at: Dict[int, float] = {}
        #: Per-victim exposure windows (us), appended as each wave's
        #: re-replication completes.
        self.exposed_windows: List[float] = []
        self._parked: Set[int] = set()
        self._blocked: Dict[int, int] = {}
        self._done_event: Optional[Event] = None
        self._quiescent: Optional[Event] = None
        # Ground-truth death observer: a node dying while a recovery is
        # already running fires no protocol hook (nobody is
        # communicating with it at the rendezvous), so without this the
        # quiescence count -- and the whole run -- would silently
        # stall waiting for threads that can never park.
        runtime.cluster.on_node_failed.append(self._on_node_died)

    @property
    def victims(self) -> Set[int]:
        """Victims of the in-progress recovery (empty when idle)."""
        return set(self._victim_queue)

    # ------------------------------------------------------------------
    # Quiescence tracking
    # ------------------------------------------------------------------

    def note_blocked(self, node_id: int) -> None:
        self._blocked[node_id] = self._blocked.get(node_id, 0) + 1
        self._check_quiescent()

    def note_unblocked(self, node_id: int) -> None:
        self._blocked[node_id] = self._blocked.get(node_id, 0) - 1

    def note_finished(self) -> None:
        self._check_quiescent()

    def _required_parkers(self) -> List[int]:
        # Threads on dead nodes (the original victim and any cascade
        # victims alike) cannot park; everyone else must.
        return [rec.tid for rec in self.runtime.threads
                if not rec.finished
                and self.runtime.cluster.node(rec.current_node).alive]

    def _check_quiescent(self) -> None:
        if self.active is None or self._quiescent is None \
                or self._quiescent.settled:
            return
        required = self._required_parkers()
        blocked = sum(count for node, count in self._blocked.items()
                      if self.runtime.cluster.node(node).alive)
        if len(self._parked & set(required)) + blocked >= len(required):
            self._quiescent.succeed(None)

    # ------------------------------------------------------------------
    # Entry points called from protocol code
    # ------------------------------------------------------------------

    def report_failure(self, failed: int) -> None:
        """The one failure intake: detection by protocol code and the
        ground-truth death observer both land here. The first victim
        opens the rendezvous; a node dying while a recovery is in
        progress is absorbed into it as an additional victim instead
        of giving up (the paper's untolerated case; see the module
        docstring for why the extension is sound)."""
        if failed in self.recovered or failed in self._victim_queue:
            return  # stale or duplicate signal
        if self.runtime.cluster.node(failed).alive:
            raise RecoveryError(
                f"false failure suspicion of live node {failed}")
        first = self.active is None
        self._victim_queue.append(failed)
        self._detected_at[failed] = self.engine.now
        if first:
            self.active = failed
            self._done_event = Event(self.engine, "recovery.done")
            self._quiescent = Event(self.engine, "recovery.quiescent")
            self._parked.clear()
        for node_id in self._live_ids():
            agent = self.runtime.agents[node_id]
            if first:
                agent.recovery_pending = RecoverySignal(failed)
            # Unmap connections from the failed node everywhere, NOW:
            # deposits it posted just before dying may still be on the
            # wire, and applying one after recovery rebuilds the target
            # region would resurrect dead state (e.g. a lock-vector
            # slot that every later acquirer spins on forever).
            agent.node.nic.shun(failed)
            agent.abort_local_waits()
        for manager in self.runtime.barrier_managers:
            manager.abort_pending()
        self.runtime.cluster.hooks.fire(
            Hooks.FAILURE_DETECTED, failed, time=self.engine.now)
        if first:
            self.engine.spawn(self._coordinate(), "recovery.coord")
        # A later victim's threads can no longer be required to park.
        self._check_quiescent()

    def _on_node_died(self, node_id: int) -> None:
        if self.active is not None:
            self.report_failure(node_id)
        # else normal operation: detection via communication

    def park(self, thread):
        """Generator: wait at the recovery rendezvous until recovery
        completes. Returns immediately on stale signals."""
        if self.active is None:
            return None
        self._parked.add(thread.thread_id)
        done = self._done_event
        self._check_quiescent()
        try:
            yield done
        finally:
            self._parked.discard(thread.thread_id)
        return None

    # ------------------------------------------------------------------
    # The recovery coordinator
    # ------------------------------------------------------------------

    def _live_ids(self) -> List[int]:
        return [node.node_id for node in self.runtime.cluster.nodes
                if node.alive]

    def _audit_survivable(self, pre_batch, batch: List[int]) -> None:
        """Raise unless every page, lock and ward still has one live
        copy after the whole ``batch`` dies together.

        ``pre_batch`` is the home map before any batch member was
        excluded, i.e. the placement whose replicas actually hold the
        state. Near-simultaneous deaths of a full replica pair (for a
        ward: of a victim together with its checkpoint backup, which
        loses its saved thread states) are the genuinely unrecoverable
        cases; everything else the wave loop handles."""
        dead = set(batch)
        for ring in pre_batch.rings:
            for key in ring.keys():
                primary, secondary = ring.primary(key), ring.secondary(key)
                if primary in dead and secondary in dead:
                    raise UnrecoverableFailure(
                        f"{ring.kind} {key} lost both replicas: nodes "
                        f"{primary} and {secondary} failed together")

    def _coordinate(self):
        runtime = self.runtime
        yield self._quiescent
        t_start = self.engine.now
        wave_ops: Dict[int, Operation] = {}
        #: tid -> (rec, used_seq, backup_id, ward, max_seq). Keyed so a
        #: thread resumed onto a node that then dies itself is simply
        #: re-resumed by the later wave (latest entry wins).
        resumed: Dict[int, tuple] = {}
        pre_maps: Dict[int, object] = {}
        processed: List[int] = []
        while len(processed) < len(self._victim_queue):
            victim = self._victim_queue[len(processed)]
            self.active = victim
            runtime.cluster.hooks.fire(Hooks.RECOVERY_START, victim)
            wave_ops[victim] = Operation(
                runtime, "recovery_wave", victim,
                "recovery wave (node %s)", (victim,))
            # Exclude every queued-but-unexcluded victim in one batch
            # (snapshotting the map each saw at exclusion) before
            # reconciling any of them: a near-simultaneous pair must
            # never have one victim's reconciliation route a read or a
            # fresh replica to the other's corpse.
            batch = [v for v in self._victim_queue if v not in pre_maps]
            if batch:
                pre_batch = runtime.homes.copy()
                self._audit_survivable(pre_batch, batch)
                for v in batch:
                    pre_maps[v] = runtime.homes.copy()
                    runtime.homes.exclude(v)
                    runtime.cluster.hooks.fire(
                        Hooks.HOME_REMAP, v, epoch=runtime.homes.epoch,
                        failed_set=sorted(runtime.homes.failed))
            # Elections installed by this wave must also land in the
            # snapshots of batch siblings still awaiting their wave,
            # or their "old" maps would mis-locate the moved replicas.
            successor_maps = [pre_maps[v]
                              for v in self._victim_queue[len(processed) + 1:]
                              if v in pre_maps]
            yield from self._recover_one(victim, pre_maps[victim],
                                         successor_maps, resumed)
            processed.append(victim)
            self.recoveries += 1
            if len(processed) < len(self._victim_queue):
                # Intermediate victim: protection is restored, but the
                # rendezvous stays held for the next victim's wave.
                wave_ops[victim].end()
                runtime.cluster.hooks.fire(
                    Hooks.RECOVERY_DONE, victim,
                    duration_us=self.engine.now - t_start, final=False)

        # -- release the rendezvous ----------------------------------------
        last = processed[-1]
        for node_id in self._live_ids():
            runtime.agents[node_id].recovery_pending = None
        self.recovered.update(processed)
        self._victim_queue = []
        self.active = None
        self.last_recovery_us = self.engine.now - t_start
        for rec, used_seq, backup_id, ward, max_seq in resumed.values():
            runtime.spawn_thread(rec)
            runtime.cluster.hooks.fire(Hooks.THREAD_RESUMED, backup_id,
                                       tid=rec.tid, ward=ward,
                                       seq=used_seq,
                                       max_valid_seq=max_seq)
        done, self._done_event = self._done_event, None
        self._quiescent = None
        done.succeed(None)
        wave_ops[last].end()
        runtime.cluster.hooks.fire(Hooks.RECOVERY_DONE, last,
                                   duration_us=self.last_recovery_us,
                                   final=True)
        return None

    # ------------------------------------------------------------------
    # One victim's wave
    # ------------------------------------------------------------------

    def _spread_pick(self, load: Dict[int, int],
                     exclude: int) -> int:
        """Least-loaded live node other than ``exclude`` (ties break on
        node id, keeping the election deterministic everywhere)."""
        candidates = [i for i in load if i != exclude]
        if not candidates:
            raise UnrecoverableFailure(
                "no surviving node available for a replacement replica")
        return min(candidates, key=lambda i: (load[i], i))

    def _elect(self, ring, old_ring, failed: int, live: List[int],
               successor_rings) -> List[Tuple[int, int, int]]:
        """Step 8-elect for one kind of state: give every key that
        kept a copy on ``failed`` a new secondary, and return those
        keys as ``(key, old primary, old secondary)``.

        The ring default would pile everything the victim hosted onto
        its successor; elect targets by least standing load instead
        (deterministic: keys in ring order, ties on node id), and
        install the choices in the map so every node -- and every
        batch sibling's pending "old map" snapshot, or it would
        mis-locate the moved replicas -- agrees."""
        moved = []
        load = {i: 0 for i in live}
        for key in ring.keys():
            old_primary = old_ring.primary(key)
            old_secondary = old_ring.secondary(key)
            if failed in (old_primary, old_secondary):
                moved.append((key, old_primary, old_secondary))
                continue
            secondary = ring.secondary(key)
            if secondary in load:
                load[secondary] += 1
        for key, _old_primary, _old_secondary in moved:
            target = self._spread_pick(load, ring.primary(key))
            if target != ring.secondary(key):
                ring.reassign(key, target)
                for sibling_ring in successor_rings:
                    sibling_ring.reassign(key, target)
            load[target] += 1
        return moved

    def _recover_one(self, failed: int, old_map, successor_maps,
                     resumed: Dict[int, tuple]):
        """Steps 3-8 for one victim.

        ``old_map`` is the home map as of the instant ``failed`` was
        excluded; it locates the replicas that actually hold state.
        Everything between two ``yield`` points is atomic in simulated
        time, so a death during this wave (it can only land inside a
        timed wait) always finds consistent, re-protected replicas.
        """
        runtime = self.runtime
        homes = runtime.homes
        net = runtime.config.network
        page_size = runtime.config.page_size
        reconcile_cost = 0.0
        rereplicate_cost = 0.0

        live = self._live_ids()
        agents = {i: runtime.agents[i] for i in live}
        # The victim's checkpoints live where the *old* map shipped
        # them (an election may have moved the backup off the ring; the
        # post-exclusion ring walk would mis-locate it).
        backup_id = old_map.backup_node(failed)
        store = agents[backup_id].ckpt_store

        page_copy_us = copy_time_us(page_size)
        page_xfer_us = net.wire_latency_us + net.transfer_time_us(page_size)

        # -- 3a. rewind surviving nodes' un-published releases ------------
        # Their tentative-copy updates are cancelled so re-replication
        # below starts from clean replicas; the owners re-enter phase 1
        # on resume and re-propagate against the new homes.
        for node_id, agent in agents.items():
            for fl in agent._inflight.values():
                if fl.stage <= STAGE_POINT_B:
                    for peer in agents.values():
                        touched = peer.apply_undo(node_id, fl.seq)
                        reconcile_cost += len(touched) * page_copy_us
                    # Re-enter phase 1 on resume; a release still in its
                    # prep stage keeps it (its diffs are not computed yet).
                    if fl.stage == STAGE_POINT_B:
                        fl.stage = STAGE_PHASE1

        # -- 3b. reconcile the failed node's last release ------------------
        pending = store.pending_release(failed)
        rolled_back_interval: Optional[int] = None
        if pending is not None and not pending.complete:
            # Roll back: cancel partial tentative updates everywhere.
            for agent in agents.values():
                touched = agent.apply_undo(failed, pending.seq)
                reconcile_cost += len(touched) * page_copy_us
            if pending.pages:
                rolled_back_interval = pending.interval
                store.interval_mirror.get(failed, {}).pop(
                    pending.interval, None)
        elif pending is not None and pending.complete:
            # Roll forward. The paper's procedure: copy the tentative
            # copy over the committed copy. This is idempotent even if
            # the release (and causally later ones) had long finished:
            # at quiescence the two copies are identical except for the
            # failed node's incompletely-applied updates. Only when the
            # *secondary* home died with the node (tentative lost --
            # either it WAS the victim, or it was a batch sibling) do we
            # fall back to the saved diffs -- safe there, because any
            # causally later writer would still be gated on the failed
            # node's unapplied committed-copy version and cannot have
            # written yet.
            saved_diffs = store.release_diffs(pending)
            for page in pending.pages:
                old_secondary = old_map.secondary_home(page)
                new_primary = homes.primary_home(page)
                if old_secondary != failed \
                        and old_secondary not in homes.failed:
                    agents[new_primary].committed.write_page(
                        page,
                        agents[old_secondary].tentative.read_page(page))
                    reconcile_cost += (page_copy_us
                                       if old_secondary == new_primary
                                       else page_xfer_us)
                else:
                    # Tentative copy died with the node. Apply the saved
                    # diffs only if the committed copy has not already
                    # absorbed this release's phase 2 (the primary's
                    # version table is the paper's timestamp check):
                    # re-applying a long-completed release would clobber
                    # causally later writers.
                    applied = agents[new_primary].page_versions.get(
                        page, {}).get(failed, 0)
                    if applied < pending.interval:
                        diff = saved_diffs[page]
                        buf = agents[new_primary].committed.page_view(page)
                        for offset, data in diff.runs:
                            buf[offset:offset + len(data)] = data
                        reconcile_cost += page_copy_us
                agents[new_primary]._bump_version(page, failed,
                                                  pending.interval)

        runtime.cluster.hooks.fire(
            Hooks.RECOVERY_RECONCILE, failed,
            action=("none" if pending is None
                    else "rollforward" if pending.complete
                    else "rollback"),
            seq=pending.seq if pending is not None else None,
            rolled_back_interval=rolled_back_interval)

        # -- 8-elect. choose replacement replica placements -----------------
        # One election per kind of state, in ring order: pages, locks,
        # wards (a ward moves when its checkpoint backup died).
        moved_pages, moved_locks, moved_wards = [
            self._elect(ring, old_ring, failed, live, sibling_rings)
            for ring, old_ring, *sibling_rings in zip(
                homes.rings, old_map.rings,
                *(sibling.rings for sibling in successor_maps))]

        # -- 4. re-replicate pages that lost one home ----------------------
        for page, old_primary, old_secondary in moved_pages:
            new_primary = homes.primary_home(page)
            new_secondary = homes.secondary_home(page)
            if old_primary == failed:
                # The old secondary's tentative copy is the
                # authoritative version now; promote it to the (new)
                # primary's committed copy. The ring usually makes that
                # survivor the new primary itself, but an earlier
                # election may have placed the replica elsewhere, so
                # name the source explicitly.
                agents[new_primary].committed.write_page(
                    page, agents[old_secondary].tentative.read_page(page))
                rereplicate_cost += (page_copy_us
                                     if old_secondary == new_primary
                                     else page_xfer_us)
            # Seed the new secondary from the (new) primary.
            agents[new_secondary].tentative.write_page(
                page, agents[new_primary].committed.read_page(page))
            rereplicate_cost += (page_xfer_us
                                 if new_secondary != new_primary
                                 else page_copy_us)

        # -- 5. lock reconfiguration ------------------------------------------
        n = runtime.config.num_nodes
        for agent in agents.values():
            # This also releases any lock the victim held when it died.
            PollingLocks.clear_slots(agent.node.regions, n, [failed])
        for lock_id, old_p, old_s in moved_locks:
            new_p = homes.lock_primary(lock_id)
            new_s = homes.lock_secondary(lock_id)
            # The surviving copy of the lock state: the old secondary
            # when the primary died, the old primary otherwise.
            survivor = old_s if old_p == failed else old_p
            for src, dst in ((survivor, new_p), (new_p, new_s)):
                if src != dst:
                    PollingLocks.copy_state(
                        agents[src].node.regions,
                        agents[dst].node.regions, n, lock_id)
        rereplicate_cost += len(moved_locks) * (net.wire_latency_us * 0.02
                                                + 0.5)

        # -- 6. global state exchange (barrier-equivalent) ------------------
        completed = store.last_complete_release(failed)
        published: Dict[int, int] = {
            i: agents[i].published_interval for i in live}
        published[failed] = completed.interval if completed else 0
        merged = VectorTimestamp(n)
        for j in range(n):
            if j in published:
                merged[j] = published[j]
            else:
                # A node that failed in an earlier recovery epoch, or a
                # batch sibling whose own wave will merge its log.
                merged[j] = max(agent.ts[j] for agent in agents.values())

        logs: Dict[int, Dict[int, List[int]]] = {
            i: agents[i].interval_log.get(i, {}) for i in live}
        failed_log = dict(store.interval_mirror.get(failed, {}))
        if rolled_back_interval is not None:
            failed_log.pop(rolled_back_interval, None)
        logs[failed] = failed_log

        invalidations = 0
        for agent in agents.values():
            for writer, wlog in logs.items():
                if writer == agent.node_id:
                    continue
                for interval in sorted(wlog):
                    if interval <= agent.ts[writer] \
                            or interval > merged[writer]:
                        continue
                    for page in wlog[interval]:
                        agent._invalidate_page(page, writer, interval)
                        invalidations += 1
            agent.ts.merge(merged)
            agent.vmmc.known_dead.add(failed)
        reconcile_cost += invalidations * INVALIDATE_PER_PAGE_US
        # Record version claims so fetch gating cannot deadlock on
        # version knowledge that died with the node:
        # * the failed node's published updates are now present at
        #   every (new) primary home;
        # * a page whose primary home died was promoted from the
        #   surviving tentative copy, which holds *every* published
        #   release of *every* writer (phase 1 completes before point
        #   B), so the new primary may claim all merged versions.
        for page in runtime.cluster.address_space.home_hint:
            primary_agent = agents[homes.primary_home(page)]
            if merged[failed] > 0:
                primary_agent._bump_version(page, failed, merged[failed])
            if old_map.primary_home(page) == failed:
                for writer in range(n):
                    if merged[writer] > 0:
                        primary_agent._bump_version(page, writer,
                                                    merged[writer])

        # -- 6b. restore checkpoint redundancy ------------------------------
        # A node whose backup died lost its saved thread states and
        # release records at the backup. The node itself still holds
        # everything it ever shipped (its self-mirror): copy the full
        # history -- thread-state slots, pending/complete records,
        # mirrored write notices -- to the new (elected) backup now.
        # Carrying only the live release metadata here is NOT enough:
        # the ward's next failure would then find no complete record and
        # roll back a release that long passed point B (the doubled-RMW
        # bug; or a permanent version wait when a lock timestamp already
        # names the rolled-back interval). The reseed null release on
        # resume additionally re-ships *current* thread states.
        for node_id, _ward, _dead_backup in moved_wards:
            agent = agents[node_id]
            new_backup_store = agents[
                homes.backup_node(node_id)].ckpt_store
            carried = new_backup_store.absorb(agent.ckpt_mirror, node_id)
            agent.needs_checkpoint_reseed = True
            rereplicate_cost += (net.wire_latency_us
                                 + net.transfer_time_us(carried))

        # Charge reconciliation, then the re-replication push: the
        # REREPLICATE span brackets the time during which the cluster
        # is running but one-copy-exposed, which is the metric the
        # paper's availability argument cares about.
        yield reconcile_cost
        rerep_op = Operation(runtime, "rereplicate", failed,
                             "re-replicate (node %s)", (failed,))
        runtime.cluster.hooks.fire(
            Hooks.REREPLICATE_START, failed,
            pages=len(moved_pages), locks=len(moved_locks),
            wards=len(moved_wards))
        yield rereplicate_cost
        exposed_us = self.engine.now - self._detected_at.get(
            failed, self.engine.now)
        self.exposed_windows.append(exposed_us)
        rerep_op.end()
        runtime.cluster.hooks.fire(
            Hooks.REREPLICATE_DONE, failed,
            duration_us=rereplicate_cost, exposed_us=exposed_us)

        # -- 7. resume the failed node's threads on the backup --------------
        wave_resumed = []
        max_seq = store.max_valid_seq(failed)
        for rec in runtime.threads:
            if rec.current_node != failed or rec.finished:
                continue
            state = store.latest_thread_state(failed, rec.tid, max_seq)
            valid = [s for s in store.slot_seqs(failed, rec.tid)
                     if 0 <= s <= max_seq]
            used_seq = max(valid) if state is not None and valid else None
            if state is None:
                # The node died before shipping any checkpoint: nothing
                # it ever did was propagated (its first release never
                # reached point B), so a fresh replay from the start is
                # the correct resume point. Initialization writes are
                # idempotent and completed barriers pass through via
                # the epoch mechanism.
                state = {}
            rec.svm.rebind(agents[backup_id])
            rec.clock.restart()
            rec.ctx = AppContext(rec.svm, rec.tid,
                                 runtime.config.total_threads,
                                 state=state)
            rec.current_node = backup_id
            rec.resumptions += 1
            wave_resumed.append(rec)
            resumed[rec.tid] = (rec, used_seq, backup_id, failed, max_seq)

        # Immediately re-checkpoint resumed threads to the new backup so
        # a subsequent failure of the backup node is tolerated too.
        next_backup = homes.backup_node(backup_id)
        ckpt_cost = 0.0
        for rec in wave_resumed:
            blob = encode_thread_state(rec.ctx.state)
            runtime.agents[next_backup].ckpt_store.store_thread_state(
                backup_id, rec.tid, 0, blob)
            # The host's self-mirror must track this ship too, or the
            # restored states would be lost again if next_backup dies.
            agents[backup_id].ckpt_mirror.store_thread_state(
                backup_id, rec.tid, 0, blob)
            ckpt_cost += (checkpoint_us(len(blob))
                          + net.wire_latency_us)
        store.forget_ward(failed)
        yield ckpt_cost

        # -- 7b. barrier/lock state reconciliation --------------------------
        # Surviving nodes and restored checkpoints can disagree about
        # how many generations of each barrier have completed: a node
        # whose exchange reply died with the old manager never advanced
        # its count, while a checkpoint-restored thread may carry a
        # *later* epoch (its old node completed the generation before
        # dying). Rebuild a single truth: a barrier generation is
        # completed iff any live node's count, any live manager's
        # record, or any unfinished thread's checkpointed epoch says
        # so -- each of those witnesses requires the generation to have
        # released globally. Every live node adopts the merged counts
        # and settles local generations that completed globally, so a
        # leader gathering stragglers for a finished generation (or a
        # restored thread re-arriving at one) passes through instead of
        # deadlocking against threads waiting at later epochs.
        generations: Dict[int, int] = {}
        for agent in agents.values():
            for bid, done in agent.barrier_done.items():
                if done > generations.get(bid, 0):
                    generations[bid] = done
        for manager in runtime.barrier_managers:
            if manager.agent.node_id not in agents:
                continue
            for bid, done in manager._completed.items():
                if done > generations.get(bid, 0):
                    generations[bid] = done
        for rec in runtime.threads:
            if rec.finished:
                continue
            for key, value in rec.ctx.state.items():
                if isinstance(key, tuple) and len(key) == 2 \
                        and key[0] == "__bar__" \
                        and value > generations.get(key[1], 0):
                    generations[key[1]] = value
        for agent in agents.values():
            for bid, gen in generations.items():
                if agent.barrier_done.get(bid, 0) < gen:
                    agent.barrier_done[bid] = gen
            for (bid, epoch), bstate in list(agent._local_barriers.items()):
                if epoch >= generations.get(bid, 0):
                    continue
                # Completed globally: release local waiters; a parked
                # leader re-checks the reconciled count on retry.
                bstate["released"] = True
                straggler = bstate.get("straggler_event")
                if straggler is not None and not straggler.settled:
                    straggler.succeed(None)
                bstate["straggler_event"] = None
                if not bstate["event"].settled:
                    bstate["event"].succeed(None)
        # Lock-state hygiene: no live lock vector may carry a bit for
        # any failed node (step 5 cleared the current victim; re-clear
        # every dead slot in case a late remnant slipped in between
        # failure and detection).
        for agent in agents.values():
            PollingLocks.clear_slots(agent.node.regions, n, homes.failed)
        runtime.cluster.hooks.fire(
            Hooks.RECOVERY_RECONCILE, failed, action="barrier-reconcile",
            generations=dict(generations))
        return None
