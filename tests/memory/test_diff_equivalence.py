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
    apply_diff,
    compute_diff,
    compute_diff_reference,
    merge_diffs,
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


@given(st.lists(page_pair(), min_size=1, max_size=4),
       st.sampled_from((1, 4, 8)))
@settings(max_examples=100)
def test_merge_diffs_equals_sequential_apply(pairs, merge_gap):
    """Applying the merged diff equals applying the diffs in order."""
    base = pairs[0][0]
    diffs = [compute_diff(5, base, cur, merge_gap=merge_gap)
             for _twin, cur in pairs]

    sequential = bytearray(base)
    for d in diffs:
        apply_diff(sequential, d)

    for merge_base in (base, None):
        merged = merge_diffs(5, diffs, PAGE, merge_gap=merge_gap,
                             base=merge_base)
        buf = bytearray(base)
        apply_diff(buf, merged)
        assert buf == sequential


@given(st.lists(page_pair(), min_size=1, max_size=3))
@settings(max_examples=100)
def test_merge_diffs_runs_sorted_nonoverlapping(pairs):
    base = pairs[0][0]
    diffs = [compute_diff(1, base, cur) for _twin, cur in pairs]
    merged = merge_diffs(1, diffs, PAGE, base=base)
    prev_end = -1
    for offset, data in merged.runs:
        assert offset > prev_end
        assert data
        prev_end = offset + len(data) - 1


# -- scratch buffer reuse ----------------------------------------------------
#
# merge_diffs keeps one module-level scratch page alive across calls
# instead of allocating a fresh bytearray per merge. The contract that
# makes this safe -- every byte of every emitted run is written before
# it is read -- is pinned here by interleaving merges designed to leak
# stale content if the contract ever broke.


def test_merge_scratch_reuse_no_stale_leak():
    # First merge saturates the scratch page with 0xFF.
    poison = merge_diffs(9, [Diff(9, ((0, b"\xff" * PAGE),))], PAGE)
    assert poison.runs == ((0, b"\xff" * PAGE),)
    # Second merge writes two sparse runs separated by a mergeable gap,
    # with a zero base: the gap bytes must come from base, never from
    # the poisoned scratch.
    base = bytes(PAGE)
    d = Diff(9, ((10, b"ab"), (15, b"cd")))
    merged = merge_diffs(9, [d], PAGE, merge_gap=8, base=base)
    assert merged.runs == ((10, b"ab\x00\x00\x00cd"),)
    # And without a base the runs stay separate with exact payloads.
    merged = merge_diffs(9, [d], PAGE, merge_gap=8)
    assert merged.runs == ((10, b"ab"), (15, b"cd"))


def test_merge_scratch_grows_for_larger_pages():
    small = merge_diffs(3, [Diff(3, ((0, b"x"),))], 64)
    assert small.runs == ((0, b"x"),)
    big_run = bytes(range(256)) * 16  # 4096 bytes
    big = merge_diffs(3, [Diff(3, ((0, big_run),))], 4096)
    assert big.runs == ((0, big_run),)


@given(st.lists(page_pair(), min_size=1, max_size=4),
       st.sampled_from((1, 4, 8)))
@settings(max_examples=100)
def test_merge_diffs_matches_reference_recompute(pairs, merge_gap):
    """The merged diff and a reference rescan patch base identically.

    compute_diff_reference(base, sequential_result) is the oracle for
    "what changed"; applying the merged diff to a fresh copy of base
    must land on exactly the bytes that oracle describes, every call
    reusing the shared scratch page.
    """
    base = pairs[0][0]
    diffs = [compute_diff(7, base, cur, merge_gap=merge_gap)
             for _twin, cur in pairs]
    sequential = bytearray(base)
    for d in diffs:
        apply_diff(sequential, d)
    oracle = compute_diff_reference(7, base, bytes(sequential),
                                    merge_gap=merge_gap)
    via_oracle = bytearray(base)
    apply_diff(via_oracle, oracle)
    via_merge = bytearray(base)
    apply_diff(via_merge, merge_diffs(7, diffs, PAGE,
                                      merge_gap=merge_gap, base=base))
    assert via_merge == via_oracle == sequential
