"""Dirty-region tracking: written extents recorded at store time must
let the diff engine scan only those spans with no change in output.

The load-bearing test here is the protocol guard: it patches the
protocol's ``compute_diff`` with a wrapper that recomputes every
region-restricted diff as a full scan and fails on any mismatch. If
the agent ever computed a diff from stale or incomplete regions (a
write not recorded, tracking started after a write, regions carried
across an interval boundary), the wrapper trips.
"""

import pytest

from repro.harness.experiments import run_app
from repro.memory.diff import _normalize_regions, compute_diff
from repro.memory.pagetable import MAX_DIRTY_REGIONS, PageTable

PAGE = 256


# -- record_write bookkeeping ------------------------------------------------

def test_record_write_noop_when_tracking_off():
    pt = PageTable(4)
    pt.entry(1)
    pt.record_write(1, 0, 8)
    assert pt.entry(1).dirty_regions is None
    # Unmaterialized entries are also a no-op, not a KeyError.
    pt.record_write(2, 0, 8)
    assert pt.entry(2).dirty_regions is None


def test_record_write_extends_last_extent_in_place():
    pt = PageTable(4)
    pt.entry(0).dirty_regions = []   # what taking a twin does
    pt.record_write(0, 10, 20)
    pt.record_write(0, 20, 30)   # touching: extend
    pt.record_write(0, 5, 12)    # overlapping from below: extend
    assert pt.entry(0).dirty_regions == [[5, 30]]


def test_record_write_appends_disjoint_extents():
    pt = PageTable(4)
    pt.entry(0).dirty_regions = []   # what taking a twin does
    pt.record_write(0, 10, 20)
    pt.record_write(0, 100, 110)
    pt.record_write(0, 40, 50)   # out of order: appended, not lost
    assert pt.entry(0).dirty_regions == [[10, 20], [100, 110], [40, 50]]


def test_record_write_overflow_collapses_to_hull():
    pt = PageTable(4)
    pt.entry(0).dirty_regions = []   # what taking a twin does
    for i in range(MAX_DIRTY_REGIONS + 1):
        pt.record_write(0, i * 4, i * 4 + 2)
    regions = pt.entry(0).dirty_regions
    assert regions == [[0, MAX_DIRTY_REGIONS * 4 + 2]]


def test_clear_dirty_stops_tracking():
    """Dropping the twin drops the extent list with it (what the
    agent's _finish_page_release does): later stores record nothing."""
    pt = PageTable(4)
    pt.entry(0).dirty_regions = []   # what taking a twin does
    pt.record_write(0, 0, 8)
    pt.entry(0).dirty_regions = None
    pt.record_write(0, 8, 16)
    assert pt.entry(0).dirty_regions is None


# -- region normalization ----------------------------------------------------

def test_normalize_regions_clips_sorts_merges():
    spans = _normalize_regions([(200, 300), (-5, 10), (8, 40), (50, 50)],
                               PAGE)
    assert spans == [(0, 40), (200, 256)]


def test_normalize_regions_empty():
    assert _normalize_regions([], PAGE) == []
    assert _normalize_regions([(10, 10), (300, 400)], PAGE) == []


# -- the contract and its failure mode ---------------------------------------

def test_stale_regions_produce_wrong_diff():
    """Demonstrates the hazard the guard below protects against: a
    region list missing a written extent silently drops that change."""
    twin = bytes(PAGE)
    cur = bytearray(twin)
    cur[10] = 1
    cur[200] = 2
    full = compute_diff(0, twin, bytes(cur))
    stale = compute_diff(0, twin, bytes(cur), regions=[(10, 11)])
    assert stale != full
    assert all(offset != 200 for offset, _data in stale.runs)


@pytest.mark.parametrize("app,variant", [
    ("WaterNsq", "base"),  # lock-heavy app: base protocol diffs too
    ("FFT", "ft"),
    ("WaterNsq", "ft"),
])
def test_protocol_diffs_never_use_stale_regions(monkeypatch, app, variant):
    """Run a real application and verify every region-restricted diff
    the protocol computes is identical to a full scan of the page."""
    import repro.protocol.agent as agent_mod

    checked = {"restricted": 0}

    def checking_compute_diff(page_id, twin, current, merge_gap=8,
                              regions=None):
        got = compute_diff(page_id, twin, current, merge_gap=merge_gap,
                           regions=regions)
        if regions is not None:
            checked["restricted"] += 1
            full = compute_diff(page_id, twin, current,
                                merge_gap=merge_gap)
            assert got == full, (
                f"page {page_id}: diff from tracked regions {regions} "
                f"differs from full scan -- stale/unscanned extents")
        return got

    # Both variants diff through SvmNodeAgent._compute_page_diff.
    monkeypatch.setattr(agent_mod, "compute_diff", checking_compute_diff)

    result = run_app(app, variant, scale="test")
    assert result.counters.total.page_faults > 0
    # The fast path must actually have been exercised, else this test
    # guards nothing.
    assert checked["restricted"] > 0
