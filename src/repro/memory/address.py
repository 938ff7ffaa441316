"""Shared virtual address space layout.

All nodes see one flat shared address space of ``num_pages`` pages.
Applications carve it into named *segments* before the parallel phase,
choosing the primary-home distribution for each segment -- the paper
notes that "the assignment of primary homes to pages is performed by
the application in a way that maximizes parallelism" (section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Union

from repro.errors import MemoryError_

#: How a segment's pages map to primary home nodes:
#: an int pins every page to that node; "block" splits the segment into
#: contiguous per-node blocks; "round_robin" interleaves pages; a
#: callable maps page-index-within-segment -> node id.
HomePolicy = Union[int, str, Callable[[int], int]]


@dataclass(frozen=True)
class Segment:
    """A named contiguous range of shared pages."""

    name: str
    base_page: int
    num_pages: int
    page_size: int

    @property
    def base_addr(self) -> int:
        return self.base_page * self.page_size

    @property
    def size_bytes(self) -> int:
        return self.num_pages * self.page_size

    def addr(self, offset: int) -> int:
        """Absolute shared address of byte ``offset`` in this segment."""
        if not 0 <= offset < self.size_bytes:
            raise MemoryError_(
                f"segment {self.name!r}: offset {offset} outside "
                f"[0, {self.size_bytes})")
        return self.base_addr + offset

    def page(self, index: int) -> int:
        """Absolute page id of the ``index``-th page of this segment."""
        if not 0 <= index < self.num_pages:
            raise MemoryError_(
                f"segment {self.name!r}: page index {index} outside "
                f"[0, {self.num_pages})")
        return self.base_page + index


class AddressSpace:
    """Flat shared space + segment allocator + home hints."""

    def __init__(self, num_pages: int, page_size: int,
                 num_nodes: int) -> None:
        if num_pages <= 0 or num_nodes <= 0:
            raise MemoryError_("bad address space geometry")
        self.num_pages = num_pages
        self.page_size = page_size
        self.num_nodes = num_nodes
        self._next_page = 0
        self._segments: Dict[str, Segment] = {}
        #: page id -> primary home node chosen at allocation.
        self.home_hint: Dict[int, int] = {}

    @property
    def pages_allocated(self) -> int:
        return self._next_page

    def alloc(self, name: str, nbytes: int,
              home: HomePolicy = "block") -> Segment:
        """Allocate a page-aligned segment of at least ``nbytes``."""
        if name in self._segments:
            raise MemoryError_(f"segment {name!r} already allocated")
        if nbytes <= 0:
            raise MemoryError_(f"segment {name!r}: size must be positive")
        num_pages = -(-nbytes // self.page_size)  # ceil division
        if self._next_page + num_pages > self.num_pages:
            raise MemoryError_(
                f"out of shared pages allocating {name!r}: need "
                f"{num_pages}, have {self.num_pages - self._next_page}")
        seg = Segment(name, self._next_page, num_pages, self.page_size)
        self._next_page += num_pages
        self._segments[name] = seg
        self._assign_homes(seg, home)
        return seg

    def _assign_homes(self, seg: Segment, home: HomePolicy) -> None:
        for index in range(seg.num_pages):
            if isinstance(home, int):
                node = home
            elif home == "block":
                node = min(index * self.num_nodes // seg.num_pages,
                           self.num_nodes - 1)
            elif home == "round_robin":
                node = index % self.num_nodes
            elif callable(home):
                node = home(index)
            else:
                raise MemoryError_(f"unknown home policy {home!r}")
            if not 0 <= node < self.num_nodes:
                raise MemoryError_(
                    f"home policy for {seg.name!r} produced node {node} "
                    f"outside [0, {self.num_nodes})")
            self.home_hint[seg.page(index)] = node

    def segments(self) -> Dict[str, Segment]:
        """All allocated segments by name (a copy; safe to iterate)."""
        return dict(self._segments)

    def locate(self, addr: int) -> tuple[int, int]:
        """Map an absolute address to ``(page_id, offset_in_page)``."""
        if not 0 <= addr < self.num_pages * self.page_size:
            raise MemoryError_(f"address {addr} outside shared space")
        return divmod(addr, self.page_size)

    def span_pages(self, addr: int, size: int) -> list[int]:
        """All page ids touched by ``[addr, addr + size)``."""
        if size <= 0:
            raise MemoryError_("span size must be positive")
        first, _ = self.locate(addr)
        last, last_off = self.locate(addr + size - 1)
        return list(range(first, last + 1))
