"""Paged shared-memory substrate: real bytes, twins, diffs, protection.

Public surface::

    from repro.memory import (
        AddressSpace, Segment, PageStore, PageTable, Access,
        Diff, compute_diff, apply_diff,
    )
"""

from repro.memory.address import AddressSpace, HomePolicy, Segment
from repro.memory.diff import Diff, apply_diff, compute_diff
from repro.memory.pagestore import PageStore
from repro.memory.pagetable import Access, PageTable, PageTableEntry

__all__ = [
    "AddressSpace",
    "Segment",
    "HomePolicy",
    "PageStore",
    "PageTable",
    "PageTableEntry",
    "Access",
    "Diff",
    "compute_diff",
    "apply_diff",
]
