"""Replica placement for pages, locks and checkpoints, with failure
reconfiguration.

Every piece of protocol state lives on two distinct nodes. A shared
page has a *primary home* chosen by the application at allocation time
(paper section 4.2) and a *secondary home*, "initially the node
immediately following the primary home in node order"; locks are
distributed round-robin and get the same treatment; a node's thread
checkpoints live on the node itself (its *ward* entry: the primary is
the node) and on a backup. All three are instances of one
:class:`ReplicaRing`; docs/PROTOCOL.md "Replica placement" tabulates
them.

After a failure the mapping is recomputed by walking the node ring and
skipping dead nodes -- a pure function of (original hint, failed set),
so every live node derives the identical new map independently, and the
two replicas of any key are guaranteed to sit on distinct nodes under
any sequence of (non-simultaneous) failures (section 4.5.1). The walk
is done once per reconfiguration, into a table of the first live node
at or after each node, so a lookup is an index.

Recovery's re-replication phase may *elect* a secondary off the ring
(:meth:`ReplicaRing.reassign`): the ring piles every replica the dead
node hosted onto its successor, while an election can spread that load
over all survivors. Elections are part of the deterministic map state
-- they are installed by the (deterministic) recovery coordinator, bump
the epoch like an exclusion does, are cloned by :meth:`HomeMap.copy`,
and are pruned automatically when a later exclusion invalidates them.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable

from repro.errors import ProtocolError, UnrecoverableFailure


class ReplicaRing:
    """Where the two copies of one kind of state live.

    ``hint(key)`` names the node the key was first placed on; the
    primary is the first live node at or after it, the secondary the
    elected node if there is one and the next live node after the
    primary otherwise. ``keys()`` lists the keys that exist, in the
    order elections visit them.
    """

    def __init__(self, homes: "HomeMap", kind: str,
                 hint: Callable[[int], int],
                 keys: Callable[[], Iterable[int]]) -> None:
        self.kind = kind
        self.hint = hint
        self.keys = keys
        self._homes = homes
        self._next_live = homes._next_live
        #: key -> elected secondary; absent keys follow the ring.
        self._elected: Dict[int, int] = {}

    def primary(self, key: int) -> int:
        return self._next_live(self.hint(key))

    def secondary(self, key: int) -> int:
        elected = self._elected.get(key)
        if elected is not None:
            return elected
        primary = self.primary(key)
        secondary = self._next_live(primary + 1)
        if secondary == primary:
            raise UnrecoverableFailure(
                f"cannot place {self.kind} replicas on distinct nodes")
        return secondary

    def reassign(self, key: int, target: int) -> None:
        """Elect ``target`` as ``key``'s secondary."""
        homes = self._homes
        primary = self.primary(key)
        if not 0 <= target < homes.num_nodes:
            raise ProtocolError(f"no node {target}")
        if target in homes._failed:
            raise ProtocolError(
                f"cannot place {self.kind} replica on dead node {target}")
        if target == primary:
            raise ProtocolError(
                f"{self.kind} replica must not share node {primary} with "
                f"its primary")
        self._elected[key] = target
        homes.epoch += 1

    def prune(self) -> None:
        """Drop elections the new failed set invalidates: a dead
        target, a ring primary that moved onto the target (the replicas
        would coincide), or a key that no longer exists (a dead ward).
        Pruned keys fall back to the ring, and the recovery of
        whichever node broke them re-elects; the lost-replica scan
        compares against the *pre-exclusion* map copy, so a pruned key
        still shows up as needing a secondary."""
        failed = self._homes._failed
        existing = set(self.keys())
        for key in list(self._elected):
            target = self._elected[key]
            if target in failed or key not in existing \
                    or target == self.primary(key):
                del self._elected[key]


class HomeMap:
    """Deterministic replica directory shared by all nodes.

    Each node holds its own copy; :meth:`exclude` is called with the
    same failed node on every live node, keeping the copies identical
    without communication.
    """

    def __init__(self, num_nodes: int, page_hint: Dict[int, int],
                 num_locks: int) -> None:
        if num_nodes < 1:
            raise ProtocolError("need at least one node")
        self.num_nodes = num_nodes
        self.num_locks = num_locks
        # Kept by reference: the address space registers hints as the
        # application allocates segments, and the map sees them live.
        self._page_hint = page_hint
        self._failed: set[int] = set()
        self._reconfigure()
        #: Reconfiguration epoch: bumped on every exclusion and every
        #: election, so auditors can tell which map generation routed
        #: a message.
        self.epoch = 0
        self.pages = ReplicaRing(self, "page", self.page_hint,
                                 self.allocated_pages)
        self.locks = ReplicaRing(self, "lock", self.lock_hint,
                                 lambda: range(num_locks))
        #: A node's checkpoints: the node itself and its backup.
        self.wards = ReplicaRing(self, "ward", self.ward_hint,
                                 self.live_nodes)
        #: In the order exclusions prune and recovery elects.
        self.rings = (self.pages, self.locks, self.wards)
        # The lookups the protocol's hot paths call, bound once so
        # they cost no frame beyond the ring's own.
        self.primary_home = self.pages.primary
        self.secondary_home = self.pages.secondary
        self.lock_primary = self.locks.primary
        self.lock_secondary = self.locks.secondary
        #: Where a node ships its thread checkpoints.
        self.backup_node = self.wards.secondary

    # -- ring walking ---------------------------------------------------------

    def _reconfigure(self) -> None:
        """Rebuild what derives from the failed set: the frozen view
        :attr:`failed` returns, and ``_live_from[start]``, the first
        live node at or after ``start`` in ring order, for ``start`` in
        ``0..num_nodes`` (empty once every node has failed)."""
        n = self.num_nodes
        failed = self._failed
        self._failed_view = frozenset(failed)
        table = []
        if len(failed) < n:
            for start in range(n + 1):
                node = start % n
                while node in failed:
                    node = (node + 1) % n
                table.append(node)
        self._live_from = table

    def _next_live(self, start: int) -> int:
        """First live node at or after ``start`` (``0..num_nodes``) in
        ring order."""
        try:
            return self._live_from[start]
        except IndexError:
            raise UnrecoverableFailure("all nodes have failed") from None

    def live_count(self) -> int:
        return self.num_nodes - len(self._failed)

    def live_nodes(self) -> list[int]:
        return [node for node in range(self.num_nodes)
                if node not in self._failed]

    @property
    def failed(self) -> FrozenSet[int]:
        return self._failed_view

    def exclude(self, node: int) -> None:
        """Mark ``node`` dead and remap everything it was hosting."""
        if not 0 <= node < self.num_nodes:
            raise ProtocolError(f"no node {node}")
        self._failed.add(node)
        self._reconfigure()
        self.epoch += 1
        if self.live_count() < 2:
            raise UnrecoverableFailure(
                "fewer than two live nodes remain: replication impossible")
        for ring in self.rings:
            ring.prune()

    # -- hints ----------------------------------------------------------------

    def page_hint(self, page_id: int) -> int:
        try:
            return self._page_hint[page_id]
        except KeyError:
            raise ProtocolError(f"page {page_id} has no home hint "
                                "(unallocated page?)") from None

    def lock_hint(self, lock_id: int) -> int:
        if not 0 <= lock_id < self.num_locks:
            raise ProtocolError(f"lock {lock_id} out of range")
        return lock_id % self.num_nodes

    def ward_hint(self, node: int) -> int:
        if not 0 <= node < self.num_nodes:
            raise ProtocolError(f"no node {node}")
        return node

    # -- pages ----------------------------------------------------------------

    def allocated_pages(self) -> list[int]:
        """All pages with a home hint, i.e. allocated by the app."""
        return sorted(self._page_hint)

    def pages_homed_at(self, node: int, role: str = "primary"
                       ) -> list[int]:
        """All pages whose current primary/secondary home is ``node``."""
        picker = (self.primary_home if role == "primary"
                  else self.secondary_home)
        return sorted(p for p in self._page_hint if picker(p) == node)

    def barrier_manager(self) -> int:
        """The node hosting barrier managers (lowest live node)."""
        return self._next_live(0)

    def copy(self) -> "HomeMap":
        clone = HomeMap(self.num_nodes, self._page_hint, self.num_locks)
        clone._failed = set(self._failed)
        clone._reconfigure()
        for ring, mine in zip(clone.rings, self.rings):
            ring._elected = dict(mine._elected)
        clone.epoch = self.epoch
        return clone
