"""Property tests: the diff engine is byte-for-byte equivalent to the
retained byte-loop reference implementation (the oracle).

:func:`compute_diff` (one memcmp, a whole-page numpy changed-byte
mask, C-level gap scans) replaced a per-byte Python loop; these tests
pin the two to identical output -- same run boundaries, same payloads,
every merge-gap policy -- across random pages, structured sparse/dense
patterns, runs at the page edges and gaps at the merge threshold, and
every diff the protocol takes in four application runs.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiments import run_app
from repro.memory.diff import (
    Diff,
    compute_diff,
    compute_diff_reference,
)

PAGE = 256

MERGE_GAPS = (0, 1, 2, 3, 8, 17, PAGE)


def assert_matches_reference(twin, cur, merge_gap):
    assert (compute_diff(0, twin, cur, merge_gap=merge_gap)
            == compute_diff_reference(0, twin, cur, merge_gap=merge_gap))


@st.composite
def page_pair(draw):
    """(twin, current) with random edit clusters."""
    twin = draw(st.binary(min_size=PAGE, max_size=PAGE))
    cur = bytearray(twin)
    edits = draw(st.lists(
        st.tuples(st.integers(0, PAGE - 1),
                  st.binary(min_size=1, max_size=24)),
        max_size=10))
    for offset, data in edits:
        data = data[:PAGE - offset]
        cur[offset:offset + len(data)] = data
    return bytes(twin), bytes(cur)


@given(page_pair(), st.sampled_from(MERGE_GAPS))
@settings(max_examples=300)
def test_vectorized_matches_reference(pair, merge_gap):
    twin, cur = pair
    assert_matches_reference(twin, cur, merge_gap)


@given(st.integers(1, 32), st.integers(1, 48), st.sampled_from(MERGE_GAPS))
@settings(max_examples=150)
def test_vectorized_matches_reference_striped(stride, width, merge_gap):
    """Dense periodic patterns: every regime of run/gap interaction."""
    rng = random.Random(stride * 1000 + width)
    twin = bytes(rng.randrange(256) for _ in range(PAGE))
    cur = bytearray(twin)
    for start in range(0, PAGE, stride + width):
        for i in range(start, min(start + width, PAGE)):
            cur[i] ^= 0x5A
    cur = bytes(cur)
    assert_matches_reference(twin, cur, merge_gap)


@given(st.integers(1, 64), st.integers(1, 64),
       st.sampled_from((1, 4, 8, 16, 33)))
@settings(max_examples=80)
def test_fragmented_large_pages_match_reference(stride, width, merge_gap):
    """4 KB pages, striped fragmentation at every gap/width relation
    (the BENCH_hotpaths fragmented regime is stride 16 / width 16
    here)."""
    big = 4096
    rng = random.Random(stride * 131 + width)
    twin = bytes(rng.randrange(256) for _ in range(big))
    cur = bytearray(twin)
    for start in range(0, big, stride + width):
        for i in range(start, min(start + width, big)):
            cur[i] ^= 0xA5
    assert_matches_reference(twin, bytes(cur), merge_gap)


@st.composite
def edge_page(draw):
    """(twin, current, merge_gap): a 64-4096 byte page whose changed
    runs are separated by gaps drawn around the merge threshold
    (``merge_gap - 1``, ``merge_gap``, or anything), with the first run
    at byte 0 and the last ending at the last byte when drawn so."""
    size = draw(st.integers(64, 4096))
    merge_gap = draw(st.sampled_from((1, 8, 16)))
    gaps = st.one_of(st.sampled_from((merge_gap - 1, merge_gap)),
                     st.integers(1, 64))
    layout = draw(st.lists(st.tuples(gaps, st.integers(1, 32)),
                           min_size=1, max_size=40))
    twin = random.Random(draw(st.integers(0, 2 ** 32))).randbytes(size)
    changed = bytearray(size)
    pos = 0 if draw(st.booleans()) else layout[0][0]
    for i, (gap, width) in enumerate(layout):
        if i:
            pos += max(gap, 1)
        if pos >= size:
            break
        changed[pos:pos + width] = b"\x01" * min(width, size - pos)
        pos += width
    if draw(st.booleans()):
        changed[-1] = 1
    cur = bytes(t ^ 0xFF if c else t for t, c in zip(twin, changed))
    return twin, cur, merge_gap


@given(edge_page())
@settings(max_examples=300)
def test_runs_at_page_edges_and_gap_threshold_match_reference(case):
    twin, cur, merge_gap = case
    assert_matches_reference(twin, cur, merge_gap)


@pytest.mark.parametrize("size", [64, 4096])
@pytest.mark.parametrize("merge_gap", [1, 8, 16])
def test_edge_runs_and_threshold_gaps_split_where_the_reference_does(
        size, merge_gap):
    """Byte 0 and the last byte changed; a gap of ``merge_gap - 1``
    unchanged bytes merges, a gap of exactly ``merge_gap`` splits."""
    twin = bytes(size)
    cur = bytearray(size)
    cur[0] = 1
    second = 1 + (merge_gap - 1)          # merged into the first run
    cur[second] = 2
    third = second + 1 + merge_gap        # a run of its own
    cur[third] = 3
    cur[-1] = 4
    diff = compute_diff(0, twin, bytes(cur), merge_gap=merge_gap)
    assert diff == compute_diff_reference(0, twin, bytes(cur),
                                          merge_gap=merge_gap)
    assert [offset for offset, _data in diff.runs] == [0, third, size - 1]
    assert diff.runs[0][1] == bytes(cur[:second + 1])


def test_both_span_scanners_agree_on_hotpath_regimes():
    """The four BENCH_hotpaths page regimes equal the reference, and
    the fragmented page splits into its 128 runs whenever its 16-byte
    gaps reach the merge threshold."""
    from benchmarks.bench_hotpaths import _make_pages
    twin, pages = _make_pages()
    for cur in pages.values():
        for merge_gap in (1, 8, 16, 64):
            assert_matches_reference(twin, cur, merge_gap)
    for merge_gap in (1, 8, 16):
        assert len(compute_diff(0, twin, pages["fragmented"],
                                merge_gap=merge_gap).runs) == 128


@given(page_pair(), st.sampled_from(MERGE_GAPS))
@settings(max_examples=200)
def test_stored_sizes_leave_identity_and_encoding_alone(pair, merge_gap):
    """changed_bytes / wire_bytes are summed once, when the Diff is
    built; they must stay out of ==, hash, repr and the wire format."""
    twin, cur = pair
    ref = compute_diff_reference(0, twin, cur, merge_gap=merge_gap)
    diff = compute_diff(0, twin, cur, merge_gap=merge_gap)
    changed = sum(len(data) for _offset, data in ref.runs)
    assert diff.changed_bytes == changed
    assert diff.wire_bytes == 8 + 8 * len(ref.runs) + changed
    assert diff == ref and hash(diff) == hash(ref)
    # Equality is on (page_id, runs) alone, whatever the sizes say.
    odd = Diff(0, ref.runs)
    object.__setattr__(odd, "wire_bytes", -1)
    assert odd == ref and hash(odd) == hash(ref)
    assert repr(diff) == f"Diff(page_id=0, runs={ref.runs!r})"
    assert diff.encode() == ref.encode()
    assert len(diff.encode()) == diff.wire_bytes
    assert Diff.decode(diff.encode()) == ref
    with pytest.raises(dataclasses.FrozenInstanceError):
        diff.changed_bytes = 0


@pytest.mark.parametrize("app,variant", [
    ("WaterNsq", "base"),  # lock-heavy app: base protocol diffs too
    ("WaterNsq", "ft"),
    # FFT base takes no diff (each node writes only pages it is home
    # of); RadixLocal is the base run with the most.
    ("RadixLocal", "base"),
    ("FFT", "ft"),
])
def test_protocol_diffs_equal_the_reference(monkeypatch, app, variant):
    """Every diff the protocol takes in a real application run -- at a
    release and at an invalidation of a dirty page -- equals the
    byte-loop oracle's diff of the same twin and page."""
    import repro.protocol.agent as agent_mod

    checked = {"diffs": 0, "runs": 0}

    def checking_compute_diff(page_id, twin, current, merge_gap=8):
        got = compute_diff(page_id, twin, current, merge_gap=merge_gap)
        assert got == compute_diff_reference(
            page_id, twin, bytes(current), merge_gap=merge_gap), (
            f"page {page_id}: diff differs from the reference")
        checked["diffs"] += 1
        checked["runs"] += len(got.runs)
        return got

    # Both variants diff through the agent module's compute_diff.
    monkeypatch.setattr(agent_mod, "compute_diff", checking_compute_diff)

    result = run_app(app, variant, scale="test")
    assert result.counters.total.page_faults > 0
    # Guards nothing unless real, non-empty diffs went through it.
    assert checked["diffs"] > 0 and checked["runs"] > 0
