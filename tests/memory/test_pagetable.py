"""Unit tests for the software page table."""

import pytest

from repro.errors import MemoryError_, ProtectionFault
from repro.memory import Access, PageTable


def test_pages_start_invalid():
    table = PageTable(8)
    with pytest.raises(ProtectionFault):
        table.check_read(0)
    with pytest.raises(ProtectionFault):
        table.check_write(0)


def test_read_only_allows_reads_blocks_writes():
    table = PageTable(8)
    table.set_access(1, Access.READ_ONLY)
    table.check_read(1)  # no fault
    with pytest.raises(ProtectionFault) as excinfo:
        table.check_write(1)
    assert excinfo.value.page_id == 1
    assert excinfo.value.access == "write"


def test_read_write_allows_everything():
    table = PageTable(8)
    table.set_access(2, Access.READ_WRITE)
    table.check_read(2)
    table.check_write(2)


def test_invalidate_resets_protection():
    table = PageTable(8)
    table.set_access(3, Access.READ_WRITE)
    table.invalidate(3)
    with pytest.raises(ProtectionFault):
        table.check_read(3)


def test_fault_counter_increments():
    table = PageTable(8)
    for _ in range(3):
        with pytest.raises(ProtectionFault):
            table.check_read(0)
    assert table.entry(0).faults == 3


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
        table.check_read(-1)
