"""Per-node software page table.

In the real system, page protection hardware (mprotect) raises a fault
on the first read of an invalid page or the first write to a read-only
page, and the SVM protocol's segv handler takes over. Here every
application access is routed through :meth:`PageTable.lacks`, which
says "fault" at exactly the same points; the protocol layer then runs
its handler.

Storage is a slot-indexed list (page id -> entry, ``None`` until first
touch) rather than a dict: the access check on every touched page
becomes plain list indexing, and
:class:`PageTableEntry` is a ``__slots__`` class so each entry is a
single compact allocation.

A store records nothing here beyond the fault it may take: which bytes
changed is found at diff time, by one scan of the whole page against
its twin (:func:`repro.memory.diff.compute_diff`).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.errors import MemoryError_


class Access(enum.Enum):
    """Protection state of a page at one node."""

    INVALID = 0      # any access faults
    READ_ONLY = 1    # writes fault (used to catch the first write: twin)
    READ_WRITE = 2   # no faults


class PageTableEntry:
    """Protection and protocol state of one page at one node."""

    __slots__ = ("access", "twin", "dirty", "locked")

    def __init__(self) -> None:
        self.access = Access.INVALID
        #: Twin snapshot taken at the first write of an interval; the
        #: page's diff is taken against it. None when the page is clean.
        self.twin: Optional[bytes] = None
        #: True from the first write of an interval until the release
        #: that commits the page is done with it.
        self.dirty = False
        #: FT protocol: page is locked during an outstanding release;
        #: page faults on it must stall (paper Fig 4).
        self.locked = False


class PageTable:
    """Protection and per-page protocol state for one node."""

    def __init__(self, num_pages: int) -> None:
        if num_pages <= 0:
            raise MemoryError_("page table needs >= 1 page")
        self.num_pages = num_pages
        #: page id -> entry; None until the page is first touched.
        self._entries: List[Optional[PageTableEntry]] = [None] * num_pages

    def entry(self, page_id: int) -> PageTableEntry:
        try:
            ent = self._entries[page_id]
        except IndexError:
            raise MemoryError_(f"page {page_id} out of range") from None
        if page_id < 0:
            raise MemoryError_(f"page {page_id} out of range")
        if ent is None:
            ent = PageTableEntry()
            self._entries[page_id] = ent
        return ent

    # -- access check (the "MMU") --------------------------------------------

    def lacks(self, page_id: int, write: bool) -> bool:
        """Whether an access to ``page_id`` faults: any access to an
        INVALID page, a write to anything but a READ_WRITE one."""
        access = self.entry(page_id).access
        if write:
            return access is not Access.READ_WRITE
        return access is Access.INVALID
