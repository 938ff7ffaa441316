"""Page stores: arrays of page copies exported to the network.

Each node owns several stores, all holding real bytes:

* the **working** store -- the copies application threads read/write;
* (extended protocol only) the **committed** store -- primary-home
  copies holding only completed releases;
* (extended protocol only) the **tentative** store -- secondary-home
  copies receiving the first phase of diff propagation.

A store is a :class:`~repro.net.regions.MemoryRegion`, so remote nodes
deposit into it and fetch from it directly, the way VMMC maps remote
virtual memory.
"""

from __future__ import annotations

from repro.errors import MemoryError_
from repro.net.regions import MemoryRegion


class PageStore(MemoryRegion):
    """A named array of ``num_pages`` page-sized buffers."""

    def __init__(self, name: str, num_pages: int, page_size: int) -> None:
        if num_pages <= 0:
            raise MemoryError_(f"page store {name!r} needs >= 1 page")
        super().__init__(name, num_pages * page_size)
        self.num_pages = num_pages
        self.page_size = page_size

    def _page_base(self, page_id: int) -> int:
        if not 0 <= page_id < self.num_pages:
            raise MemoryError_(
                f"store {self.name!r}: page {page_id} out of range "
                f"[0, {self.num_pages})")
        return page_id * self.page_size

    def read_page(self, page_id: int) -> bytes:
        base = self._page_base(page_id)
        return self.read(base, self.page_size)

    def write_page(self, page_id: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise MemoryError_(
                f"store {self.name!r}: page write of {len(data)} bytes "
                f"(page size {self.page_size})")
        self.write(self._page_base(page_id), data)

    def page_view(self, page_id: int) -> memoryview:
        """Mutable view of one page for zero-copy local access."""
        base = self._page_base(page_id)
        return memoryview(self.view())[base:base + self.page_size]

    def read_span(self, page_id: int, offset: int, size: int) -> bytes:
        base = self._page_base(page_id)
        if offset < 0 or offset + size > self.page_size:
            raise MemoryError_(
                f"store {self.name!r}: span [{offset}, {offset + size}) "
                f"outside page size {self.page_size}")
        return self.read(base + offset, size)

    def write_span(self, page_id: int, offset: int, data: bytes) -> None:
        base = self._page_base(page_id)
        if offset < 0 or offset + len(data) > self.page_size:
            raise MemoryError_(
                f"store {self.name!r}: span [{offset}, "
                f"{offset + len(data)}) outside page size {self.page_size}")
        self.write(base + offset, data)
