"""Page sharing profiles.

Classifies every shared page by its observed access pattern -- the
analysis vocabulary of the DSM literature the paper builds on, and the
mechanism behind its section 5 discussion (owner-computes pages,
migratory cells, false sharing):

* ``private``       written and read by a single node;
* ``read_shared``   one writer (or none), many readers;
* ``migratory``     multiple writers, but serialized (never two
                    writers in the same interval window -- the lock-
                    passing pattern);
* ``false_shared``  multiple writers with interleaved ownership of
                    disjoint parts (concurrent writers);
* ``untouched``     allocated but never accessed.

The profiler subscribes to page-fault hooks and diff traffic, so it
costs nothing when not attached.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.cluster import Hooks


#: Two writes of a page by different nodes less than this many us apart
#: belong to one "burst" (see ``PageProfile.concurrent_writers``).
BURST_WINDOW_US = 50.0


@dataclass
class PageProfile:
    """Observed behaviour of one page."""

    readers: Set[int] = field(default_factory=set)
    writers: Set[int] = field(default_factory=set)
    write_faults: int = 0
    read_faults: int = 0
    #: Writer sequence in fault order (for migratory detection).
    writer_order: List[int] = field(default_factory=list)
    #: True when two different nodes wrote without an intervening
    #: diff round-trip (approximated: consecutive distinct writers
    #: within the same "burst").
    concurrent_writers: bool = False

    def classify(self) -> str:
        if not self.readers and not self.writers:
            return "untouched"
        if len(self.writers) <= 1:
            if self.readers - self.writers:
                return "read_shared"
            return "private"
        if self.concurrent_writers:
            return "false_shared"
        return "migratory"


class SharingProfiler:
    """Attach before a run; read profiles afterwards."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.pages: Dict[int, PageProfile] = defaultdict(PageProfile)
        self._last_write: Dict[int, tuple] = {}
        runtime.cluster.hooks.on(Hooks.PAGE_FAULT, self._on_fault)

    def _on_fault(self, node_id: int, **info) -> None:
        page = info["page"]
        profile = self.pages[page]
        now = self.runtime.engine.now
        if info.get("write"):
            profile.writers.add(node_id)
            profile.write_faults += 1
            profile.writer_order.append(node_id)
            last = self._last_write.get(page)
            if last is not None:
                last_node, last_time = last
                if last_node != node_id and \
                        now - last_time < BURST_WINDOW_US:
                    profile.concurrent_writers = True
            self._last_write[page] = (node_id, now)
        else:
            profile.readers.add(node_id)
            profile.read_faults += 1

    # -- reporting -----------------------------------------------------------

    def classify_all(self) -> Dict[int, str]:
        return {page: profile.classify()
                for page, profile in self.pages.items()}

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for profile in self.pages.values():
            counts[profile.classify()] += 1
        return dict(counts)
