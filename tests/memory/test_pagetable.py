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
    table.set_access(1, Access.READ_ONLY)
    assert not table.lacks(1, False)
    assert table.lacks(1, True)


def test_read_write_allows_everything():
    table = PageTable(8)
    table.set_access(2, Access.READ_WRITE)
    assert not table.lacks(2, False)
    assert not table.lacks(2, True)


def test_invalidate_resets_protection():
    table = PageTable(8)
    table.set_access(3, Access.READ_WRITE)
    table.invalidate(3)
    assert table.lacks(3, False)


def test_dirty_page_tracking():
    table = PageTable(8)
    table.entry(4).dirty = True
    table.entry(1).dirty = True
    assert table.dirty_pages() == [1, 4]
    table.clear_dirty(4)
    assert table.dirty_pages() == [1]
    assert table.entry(4).twin is None


def test_out_of_range_page_rejected():
    table = PageTable(8)
    with pytest.raises(MemoryError_):
        table.entry(8)
    with pytest.raises(MemoryError_):
        table.lacks(-1, False)
