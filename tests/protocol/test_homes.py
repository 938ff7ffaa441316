"""Unit and property tests for the home directory.

The central invariant (paper section 4.5.1): under any sequence of
non-simultaneous failures, the two replicas of every page and lock live
on distinct live nodes, and every live node independently computes the
same mapping.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, UnrecoverableFailure
from repro.protocol.homes import HomeMap


def make_map(num_nodes=8, num_pages=32, num_locks=16):
    hints = {p: p % num_nodes for p in range(num_pages)}
    return HomeMap(num_nodes, hints, num_locks), hints


def test_primary_follows_hint_initially():
    homes, hints = make_map()
    for page, hint in hints.items():
        assert homes.primary_home(page) == hint


def test_secondary_is_next_node_initially():
    homes, hints = make_map()
    for page, hint in hints.items():
        assert homes.secondary_home(page) == (hint + 1) % 8


def test_lock_homes_round_robin():
    homes, _ = make_map()
    assert homes.lock_primary(3) == 3
    assert homes.lock_secondary(3) == 4
    assert homes.lock_primary(11) == 3


def test_exclude_remaps_onto_live_nodes():
    homes, _ = make_map(num_nodes=4, num_pages=8)
    homes.exclude(1)
    for page in range(8):
        assert homes.primary_home(page) != 1
        assert homes.secondary_home(page) != 1


def test_failed_primary_promotes_old_secondary():
    homes, _ = make_map(num_nodes=4, num_pages=8)
    # Page 1 has primary 1, secondary 2; after node 1 dies the old
    # secondary becomes the primary.
    assert homes.primary_home(1) == 1
    homes.exclude(1)
    assert homes.primary_home(1) == 2
    assert homes.secondary_home(1) == 3


def test_backup_node_skips_failed():
    homes, _ = make_map(num_nodes=4)
    assert homes.backup_node(0) == 1
    homes.exclude(1)
    assert homes.backup_node(0) == 2


def test_barrier_manager_moves_on_failure():
    homes, _ = make_map(num_nodes=4)
    assert homes.barrier_manager() == 0
    homes.exclude(0)
    assert homes.barrier_manager() == 1


def test_too_many_failures_unrecoverable():
    homes, _ = make_map(num_nodes=3)
    homes.exclude(0)
    with pytest.raises(UnrecoverableFailure):
        homes.exclude(1)


def test_lookup_after_every_node_failed_is_unrecoverable():
    homes, _ = make_map(num_nodes=2)
    for node in (0, 1):
        with pytest.raises(UnrecoverableFailure):
            homes.exclude(node)
    assert homes.failed == frozenset({0, 1})
    for lookup in (lambda: homes.primary_home(0), homes.barrier_manager,
                   lambda: homes.lock_primary(1)):
        with pytest.raises(UnrecoverableFailure, match="all nodes"):
            lookup()


@given(st.integers(1, 9),
       st.lists(st.integers(0, 8), min_size=0, max_size=9, unique=True))
@settings(max_examples=200)
def test_placement_table_matches_a_ring_walk(num_nodes, failures):
    # Each reconfiguration rebuilds the table; every lookup must equal
    # walking the ring from ``start`` and skipping dead nodes.
    homes, _ = make_map(num_nodes=num_nodes)
    for node in (f for f in failures if f < num_nodes):
        try:
            homes.exclude(node)
        except UnrecoverableFailure:
            pass
        for view in (homes, homes.copy()):
            assert view.failed == frozenset(view._failed)
            for start in range(num_nodes + 1):
                walk = [(start + step) % num_nodes
                        for step in range(num_nodes)
                        if (start + step) % num_nodes not in view.failed]
                if walk:
                    assert view._next_live(start) == walk[0]
                else:
                    with pytest.raises(UnrecoverableFailure):
                        view._next_live(start)


def test_unknown_page_rejected():
    homes, _ = make_map(num_pages=4)
    with pytest.raises(ProtocolError):
        homes.primary_home(99)


def test_copy_is_independent():
    homes, _ = make_map(num_nodes=4)
    clone = homes.copy()
    homes.exclude(2)
    assert clone.primary_home(2) == 2
    assert homes.primary_home(2) != 2


@given(st.integers(3, 10),
       st.lists(st.integers(0, 9), min_size=0, max_size=6, unique=True))
@settings(max_examples=200)
def test_property_replicas_always_distinct_and_live(num_nodes, failures):
    """Under any failure sequence leaving >= 2 nodes, all replicas sit
    on distinct live nodes for every page and lock."""
    failures = [f for f in failures if f < num_nodes]
    if num_nodes - len(failures) < 2:
        failures = failures[:num_nodes - 2]
    homes, hints = make_map(num_nodes=num_nodes, num_pages=2 * num_nodes,
                            num_locks=num_nodes + 3)
    for node in failures:
        homes.exclude(node)
    dead = set(failures)
    for page in hints:
        p = homes.primary_home(page)
        s = homes.secondary_home(page)
        assert p != s
        assert p not in dead
        assert s not in dead
    for lock in range(num_nodes + 3):
        lp = homes.lock_primary(lock)
        ls = homes.lock_secondary(lock)
        assert lp != ls
        assert lp not in dead and ls not in dead
    for node in range(num_nodes):
        if node not in dead:
            backup = homes.backup_node(node)
            assert backup != node
            assert backup not in dead


@given(st.integers(3, 8),
       st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True))
@settings(max_examples=100)
def test_property_mapping_deterministic_across_replicas(num_nodes,
                                                        failures):
    """Two nodes applying the same exclusions independently derive the
    identical mapping (no communication needed, section 4.5.1)."""
    failures = [f for f in failures if f < num_nodes][:num_nodes - 2]
    a, hints = make_map(num_nodes=num_nodes, num_pages=num_nodes * 2)
    b = HomeMap(num_nodes, hints, a.num_locks)
    for node in failures:
        a.exclude(node)
        b.exclude(node)
    for page in hints:
        assert a.primary_home(page) == b.primary_home(page)
        assert a.secondary_home(page) == b.secondary_home(page)


# -- elected secondaries ------------------------------------------------------
#
# Pages, locks and checkpoint wards are three instances of one
# ReplicaRing, so each case below runs once per kind: the ring, and the
# HomeMap lookups that read its primary and secondary.

KINDS = {
    "pages": ("primary_home", "secondary_home"),
    "locks": ("lock_primary", "lock_secondary"),
    "wards": (None, "backup_node"),  # a live ward is its own primary
}


def each_kind(**map_args):
    """(kind, fresh map, ring, primary lookup, secondary lookup)."""
    for kind, (primary, secondary) in KINDS.items():
        homes, _ = make_map(**map_args)
        yield (kind, homes, getattr(homes, kind),
               getattr(homes, primary) if primary else (lambda key: key),
               getattr(homes, secondary))


def test_reassign_secondary_overrides_ring():
    for kind, homes, ring, primary, secondary in each_kind():
        assert secondary(0) == 1, kind
        ring.reassign(0, 5)
        assert secondary(0) == 5, kind
        assert primary(0) == 0, kind  # primary untouched
        assert secondary(1) == 2, kind  # other keys unaffected


def test_reassign_bumps_epoch():
    homes, _ = make_map()
    before = homes.epoch
    for ring in homes.rings:
        ring.reassign(0, 5)
    assert homes.epoch == before + 3


def test_reassign_rejects_dead_or_primary_target():
    for kind, homes, ring, primary, _ in each_kind():
        homes.exclude(7)
        with pytest.raises(ProtocolError):
            ring.reassign(0, 7)  # dead target
        with pytest.raises(ProtocolError):
            ring.reassign(2, primary(2))  # replicas must not coincide
        with pytest.raises(ProtocolError):
            ring.reassign(0, 8)  # no such node


def test_reassign_backup_overrides_ring():
    homes, _ = make_map()
    assert homes.backup_node(0) == 1
    homes.wards.reassign(0, 4)
    assert homes.backup_node(0) == 4
    assert homes.wards.primary(0) == 0  # the ward itself holds copy one
    assert homes.backup_node(1) == 2  # other wards unaffected


def test_override_pruned_when_target_dies():
    for kind, homes, ring, _, secondary in each_kind():
        ring.reassign(2, 5)
        homes.exclude(5)
        # Falls back to the ring walk on live nodes.
        assert secondary(2) == 3, kind


def test_override_pruned_when_ring_moves_primary_onto_target():
    for kind, homes, ring, primary, secondary in each_kind(
            num_nodes=4, num_pages=8):
        if kind == "wards":
            continue  # a ward's primary only moves when the ward dies
        # Key 0: primary 0, ring secondary 1. Elect 2 as secondary, then
        # kill 0 and 1: the ring primary walks 0 -> 2, colliding with
        # the election, which must be dropped (replicas may not
        # coincide).
        ring.reassign(0, 2)
        homes.exclude(0)
        assert primary(0) == 1, kind
        assert secondary(0) == 2, kind  # election still valid
        homes.exclude(1)
        assert primary(0) == 2, kind
        assert secondary(0) == 3, kind  # pruned; ring fallback


def test_dead_ward_loses_its_election_dead_hint_node_does_not():
    """The one kind-specific rule: a ward is a node, so it stops
    existing when it dies and its election goes with it; a page or lock
    outlives the node its hint names and keeps its elected secondary."""
    for kind, homes, ring, _, secondary in each_kind():
        ring.reassign(0, 5)
        homes.exclude(0)
        assert ring.primary(0) == 1, kind
        # The ring alone would put the secondary on node 2.
        assert secondary(0) == (2 if kind == "wards" else 5), kind
    homes, _ = make_map()
    assert list(homes.wards.keys()) == list(range(8))
    homes.exclude(3)
    assert 3 not in homes.wards.keys()
    assert 3 in homes.locks.keys()


def test_copy_clones_overrides_independently():
    for kind, homes, ring, _, secondary in each_kind():
        ring.reassign(0, 5)
        clone = homes.copy()
        assert getattr(clone, KINDS[kind][1])(0) == 5, kind
        assert clone.epoch == homes.epoch
        getattr(clone, kind).reassign(0, 3)
        assert secondary(0) == 5, kind  # original untouched
