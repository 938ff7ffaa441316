"""Unit tests for the software page table."""

import pytest

from repro.errors import MemoryError_
from repro.memory import Access, PageTable


def test_pages_start_invalid():
    table = PageTable(8)
    assert table.lacks(0, False)
    assert table.lacks(0, True)


def test_read_only_allows_reads_blocks_writes():
    table = PageTable(8)
    table.entry(1).access = Access.READ_ONLY
    assert not table.lacks(1, False)
    assert table.lacks(1, True)


def test_read_write_allows_everything():
    table = PageTable(8)
    table.entry(2).access = Access.READ_WRITE
    assert not table.lacks(2, False)
    assert not table.lacks(2, True)


def test_invalidate_resets_protection():
    table = PageTable(8)
    table.entry(3).access = Access.READ_WRITE
    table.entry(3).access = Access.INVALID
    assert table.lacks(3, False)
    assert table.lacks(3, True)


def test_dirty_page_tracking():
    """Each page keeps its own protocol state: a clean entry has no
    twin, and marking one page dirty touches no other."""
    table = PageTable(8)
    clean = table.entry(1)
    assert (clean.dirty, clean.twin, clean.locked) == (False, None, False)
    table.entry(4).dirty = True
    assert [pid for pid in range(8) if table.entry(pid).dirty] == [4]


def test_out_of_range_page_rejected():
    table = PageTable(8)
    with pytest.raises(MemoryError_):
        table.entry(8)
    with pytest.raises(MemoryError_):
        table.lacks(-1, False)
