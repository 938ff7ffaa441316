"""Page diffs: run-length encodings of modified bytes.

A *diff* is computed by comparing a page against its *twin* (the
snapshot taken before the first write in an interval) and consists of
the byte runs that changed. Diffs are how HLRC protocols propagate
updates: they solve false sharing because two nodes modifying disjoint
parts of the same page produce non-overlapping diffs that merge cleanly
at the home copy (paper section 3.2).

The encoding here is real: diffs serialize to bytes, travel over the
simulated wire, and are applied by patching the destination buffer.

Diff computation is the protocol's dominant host cost (the paper's
section 5.3 breakdown), so :func:`compute_diff` is one scan over the
whole page: a ``memcmp`` settles a clean page, otherwise numpy builds a
0/1 changed-byte mask and C-level ``bytes.find``/``rfind`` walk it run
by run. The per-byte implementation is retained as
:func:`compute_diff_reference`, the oracle; property tests and a
protocol guard assert byte-for-byte equivalence between the two.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import MemoryError_

#: Per-run header: offset (u32) + length (u32).
_RUN_HEADER = struct.Struct("<II")
#: Diff header: page id (u32) + run count (u32).
_DIFF_HEADER = struct.Struct("<II")


@dataclass(frozen=True)
class Diff:
    """The changed runs of one page."""

    page_id: int
    runs: Tuple[Tuple[int, bytes], ...]
    # Counters, wire sizing and the service-time model each read the
    # two sizes several times per diff; the runs are immutable, so they
    # are summed once, at construction. Identity stays (page_id, runs).
    changed_bytes: int = field(init=False, compare=False, repr=False)
    #: Size of the serialized diff (headers + payload).
    wire_bytes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        changed = sum([len(data) for _offset, data in self.runs])
        object.__setattr__(self, "changed_bytes", changed)
        object.__setattr__(
            self, "wire_bytes",
            _DIFF_HEADER.size + len(self.runs) * _RUN_HEADER.size + changed)

    @property
    def is_empty(self) -> bool:
        return not self.runs

    def encode(self) -> bytes:
        # Single preallocated buffer: no quadratic growth, one final copy.
        out = bytearray(self.wire_bytes)
        _DIFF_HEADER.pack_into(out, 0, self.page_id, len(self.runs))
        pos = _DIFF_HEADER.size
        for offset, data in self.runs:
            length = len(data)
            _RUN_HEADER.pack_into(out, pos, offset, length)
            pos += _RUN_HEADER.size
            out[pos:pos + length] = data
            pos += length
        return bytes(out)

    @classmethod
    def decode(cls, blob: bytes) -> "Diff":
        if len(blob) < _DIFF_HEADER.size:
            raise MemoryError_("truncated diff blob")
        page_id, nruns = _DIFF_HEADER.unpack_from(blob, 0)
        pos = _DIFF_HEADER.size
        runs: List[Tuple[int, bytes]] = []
        prev_end = 0
        for _ in range(nruns):
            if pos + _RUN_HEADER.size > len(blob):
                raise MemoryError_("truncated diff run header")
            offset, length = _RUN_HEADER.unpack_from(blob, pos)
            pos += _RUN_HEADER.size
            if pos + length > len(blob):
                raise MemoryError_("truncated diff run payload")
            if runs and offset < prev_end:
                raise MemoryError_(
                    f"diff runs out of order or overlapping: run at "
                    f"{offset} after run ending at {prev_end}")
            prev_end = offset + length
            # One slice copy; the old code wrapped the slice in bytes()
            # a second time.
            runs.append((offset, blob[pos:pos + length]))
            pos += length
        if pos != len(blob):
            raise MemoryError_("trailing bytes after diff")
        return cls(page_id, tuple(runs))


def compute_diff(page_id: int, twin: bytes, current: bytes,
                 merge_gap: int = 8) -> Diff:
    """Compare ``current`` against ``twin`` and return the changed runs.

    ``merge_gap``: adjacent changed runs separated by fewer than this
    many unchanged bytes are merged into one run -- real diff engines do
    this (word-granularity scans) and it keeps run counts realistic.

    The changed-byte mask is scanned for the gap pattern (``merge_gap``
    zero bytes): runs split exactly where the byte-by-byte reference
    splits and come out already coalesced, at three C-level
    ``find``/``rfind`` calls per run. Gap bytes are unchanged, so a
    merged run's payload (sliced from ``current``) is what the
    reference produces.
    """
    n = len(twin)
    if n != len(current):
        raise MemoryError_(
            f"twin/page size mismatch: {n} vs {len(current)}")
    # The protocol passes a memoryview, which compares item by item:
    # a bytes copy plus one memcmp is over 30x faster on a 4 KiB page.
    current = bytes(current)
    if twin == current:  # one memcmp settles a clean page
        return Diff(page_id, ())
    mask = (np.frombuffer(twin, np.uint8)
            != np.frombuffer(current, np.uint8)).tobytes()
    gap = b"\x00" * max(1, merge_gap)
    runs: List[Tuple[int, bytes]] = []
    start = mask.find(1)
    while start >= 0:
        split = mask.find(gap, start)
        if split < 0:
            split = n
        end = mask.rfind(1, start, split) + 1
        runs.append((start, current[start:end]))
        start = mask.find(1, split)
    return Diff(page_id, tuple(runs))


def compute_diff_reference(page_id: int, twin: bytes, current: bytes,
                           merge_gap: int = 8) -> Diff:
    """Byte-by-byte reference implementation of :func:`compute_diff`.

    The oracle: kept for the equivalence property tests, the protocol
    guard and the perf-regression harness (the scan's speedup is
    measured against this).
    """
    if len(twin) != len(current):
        raise MemoryError_(
            f"twin/page size mismatch: {len(twin)} vs {len(current)}")
    runs: List[Tuple[int, int]] = []  # (start, end) exclusive
    i = 0
    n = len(twin)
    while i < n:
        if twin[i] != current[i]:
            start = i
            while i < n and twin[i] != current[i]:
                i += 1
            if runs and start - runs[-1][1] < merge_gap:
                runs[-1] = (runs[-1][0], i)
            else:
                runs.append((start, i))
        else:
            i += 1
    return Diff(page_id, tuple(
        (start, bytes(current[start:end])) for start, end in runs))


def apply_diff(buf: bytearray, diff: Diff) -> None:
    """Patch ``buf`` in place with the runs of ``diff``."""
    size = len(buf)
    for offset, data in diff.runs:
        if offset < 0 or offset + len(data) > size:
            raise MemoryError_(
                f"diff run [{offset}, {offset + len(data)}) outside page "
                f"of size {size}")
        buf[offset:offset + len(data)] = data
