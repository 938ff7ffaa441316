"""Exported memory regions for virtual-memory-mapped communication.

VMMC's defining feature (paper section 3.1) is that a sender can deposit
data *directly into a virtual address range of the destination host*
without interrupting the remote processor, and symmetrically fetch from
one. We model an exported address range as a named :class:`MemoryRegion`
registered with the node's NIC; deposits and fetches name a region and
an offset.
"""

from __future__ import annotations

import mmap
from typing import Dict

from repro.errors import MemoryError_

#: Anonymous *private* mapping: pool workers fork, and ``mmap``'s
#: default (shared) would let a child's stores show through in the
#: parent. A platform without the flags has no fork either, and there
#: ``mmap.mmap(-1, size)`` is already private to the process.
try:
    _MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
except AttributeError:
    _MAP_FLAGS = None
_MADV_NOHUGEPAGE = getattr(mmap, "MADV_NOHUGEPAGE", None)


def _demand_zero(size: int) -> mmap.mmap:
    """``size`` zero bytes the host pays for page by page, on first touch.

    Every node exports full-address-space stores but touches only the
    pages it caches or homes; a memset buffer would make all of them
    resident up front. The mapping stays one contiguous buffer, which
    page views and ``np.frombuffer`` rely on.
    """
    if _MAP_FLAGS is None:
        buf = mmap.mmap(-1, size)
    else:
        buf = mmap.mmap(-1, size, flags=_MAP_FLAGS)
    if _MADV_NOHUGEPAGE is not None:
        # With transparent huge pages set to "always", touching one
        # 4 KB page would make 2 MB resident.
        try:
            buf.madvise(_MADV_NOHUGEPAGE)
        except OSError:  # kernel built without THP: nothing to opt out of
            pass
    return buf


class MemoryRegion:
    """A contiguous exported byte range backed by a real buffer.

    The buffer is an anonymous demand-zero mapping: it reads as zeros
    until written, cannot be resized, and cannot be pickled or
    deep-copied (a region is node state, never a message or a result).
    """

    def __init__(self, name: str, size: int) -> None:
        if size <= 0:
            raise MemoryError_(f"region {name!r} must have positive size")
        self.name = name
        self.size = size
        self._buf = _demand_zero(size)

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryError_(
                f"region {self.name!r}: access [{offset}, {offset + length}) "
                f"outside size {self.size}")

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return self._buf[offset:offset + length]

    def write(self, offset: int, data) -> None:
        """Store any bytes-like ``data`` at ``offset``."""
        length = len(data)
        self._check(offset, length)
        try:
            self._buf[offset:offset + length] = data
        except (IndexError, ValueError) as exc:
            # ``len(data)`` counted multi-byte items, not bytes; the
            # mapping cannot grow or shrink to fit.
            raise MemoryError_(
                f"region {self.name!r}: write of {length} bytes at "
                f"{offset} from a buffer of another size") from exc

    def view(self) -> mmap.mmap:
        """Direct mutable access for the *local* host (no wire involved).

        A fixed-size writable buffer: index it, slice-assign equal-length
        data, or wrap it in ``memoryview`` / ``np.frombuffer``.
        """
        return self._buf


class RegionTable:
    """The set of regions a node exports to the network."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._regions: Dict[str, MemoryRegion] = {}

    def export(self, name: str, size: int) -> MemoryRegion:
        if name in self._regions:
            raise MemoryError_(f"node {self.node_id}: region {name!r} "
                               "already exported")
        region = MemoryRegion(name, size)
        self._regions[name] = region
        return region

    def export_region(self, region: MemoryRegion) -> MemoryRegion:
        if region.name in self._regions:
            raise MemoryError_(f"node {self.node_id}: region "
                               f"{region.name!r} already exported")
        self._regions[region.name] = region
        return region

    def lookup(self, name: str) -> MemoryRegion:
        try:
            return self._regions[name]
        except KeyError:
            raise MemoryError_(
                f"node {self.node_id}: no exported region {name!r}") from None
