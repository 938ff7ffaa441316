"""Property tests: the vectorized diff engine is byte-for-byte
equivalent to the retained byte-loop reference implementation.

The vectorized :func:`compute_diff` (memcmp spans, big-int XOR mask,
C-level gap scans) replaced a per-byte Python loop; these tests pin the
two to identical output -- same run boundaries, same payloads, every
merge-gap policy -- across random pages, structured sparse/dense
patterns, and region-restricted scans.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memory.diff as diff_mod
from repro.memory.diff import (
    Diff,
    compute_diff,
    compute_diff_reference,
)

PAGE = 256

MERGE_GAPS = (0, 1, 2, 3, 8, 17, PAGE)


def assert_matches_reference(twin, cur, merge_gap):
    """compute_diff == reference under BOTH span scanners.

    The scanner picks its strategy by span length (>= _NUMPY_SPAN_BYTES
    goes to the numpy boundary finder); 256-byte test pages would only
    ever exercise the big-int path, so equivalence is asserted once per
    strategy by forcing the threshold either way.
    """
    ref = compute_diff_reference(0, twin, cur, merge_gap=merge_gap)
    orig = diff_mod._NUMPY_SPAN_BYTES
    try:
        for threshold in (0, 1 << 30):
            diff_mod._NUMPY_SPAN_BYTES = threshold
            assert compute_diff(0, twin, cur, merge_gap=merge_gap) == ref
    finally:
        diff_mod._NUMPY_SPAN_BYTES = orig


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
    """4 KB pages cross the real numpy threshold: striped fragmentation
    at every gap/width relation (the BENCH_hotpaths fragmented regime
    is stride 16 / width 16 here)."""
    big = 4096
    rng = random.Random(stride * 131 + width)
    twin = bytes(rng.randrange(256) for _ in range(big))
    cur = bytearray(twin)
    for start in range(0, big, stride + width):
        for i in range(start, min(start + width, big)):
            cur[i] ^= 0xA5
    cur = bytes(cur)
    # Default threshold: full pages take the numpy path for real.
    assert (compute_diff(0, twin, cur, merge_gap=merge_gap) ==
            compute_diff_reference(0, twin, cur, merge_gap=merge_gap))


def test_both_span_scanners_agree_on_hotpath_regimes():
    """The four BENCH_hotpaths page regimes, both scanners, exactly."""
    from benchmarks.bench_hotpaths import _make_pages
    twin, pages = _make_pages()
    for cur in pages.values():
        for merge_gap in (1, 8, 64):
            assert_matches_reference(twin, cur, merge_gap)


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


@given(page_pair(), st.sampled_from((1, 8, 16)))
@settings(max_examples=200)
def test_region_restricted_scan_equals_full_scan(pair, merge_gap):
    """When the given regions cover every changed byte, restricting the
    scan to them must not change the result -- the dirty-region
    contract."""
    twin, cur = pair
    full = compute_diff(0, twin, cur, merge_gap=merge_gap)
    # Exact covering regions, one per changed byte (maximally
    # fragmented input exercises normalization hardest).
    regions = [(i, i + 1) for i in range(PAGE) if twin[i] != cur[i]]
    restricted = compute_diff(0, twin, cur, merge_gap=merge_gap,
                              regions=regions)
    assert restricted == full
    # Conservative supersets must give the same answer too.
    padded = [(max(0, s - 3), min(PAGE, e + 5)) for s, e in regions]
    assert compute_diff(0, twin, cur, merge_gap=merge_gap,
                        regions=padded) == full
    # The whole page as one region degenerates to the full scan.
    assert compute_diff(0, twin, cur, merge_gap=merge_gap,
                        regions=[(0, PAGE)]) == full
