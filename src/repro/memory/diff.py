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
section 5.3 breakdown), so :func:`compute_diff` is vectorized: clean
spans are dismissed with ``memcmp``-speed equality, run boundaries in
short changed spans are found with a big-int XOR plus C-level
``translate``/``find`` scans, and long spans (>=
:data:`_NUMPY_SPAN_BYTES`) use a numpy boundary finder whose cost is
independent of how fragmented the page is. The per-byte implementation is retained as
:func:`compute_diff_reference`; property tests assert byte-for-byte
equivalence between the two.

When the caller has tracked which extents of the page were written
since the twin was taken (dirty-region tracking in the page table), it
passes them as ``regions`` and only those spans are scanned. The
contract is that every twin/current difference lies inside the given
regions; :mod:`tests.memory.test_dirty_tracking` guards it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MemoryError_

#: Per-run header: offset (u32) + length (u32).
_RUN_HEADER = struct.Struct("<II")
#: Diff header: page id (u32) + run count (u32).
_DIFF_HEADER = struct.Struct("<II")

#: translate() table mapping zero bytes to 0x00 and every nonzero byte
#: to 0x01, turning a XOR buffer into a changed-byte mask that C-level
#: ``bytes.find`` can scan for run boundaries.
_NONZERO = bytes([0]) + bytes([1]) * 255

#: Spans at least this long are scanned with the numpy boundary finder
#: instead of the big-int mask loop. The mask loop costs one Python
#: iteration (a handful of C ``find``/``rfind`` calls) *per run*, which
#: collapses on fragmented pages -- a 4 KB page with 128 separate runs
#: spent more time walking runs than a clean page spends on its memcmp.
#: The numpy path finds every run boundary with a fixed number of array
#: operations regardless of run count; its constant setup cost only
#: pays for itself on larger spans, so short spans (small pages, dirty
#: region extents) keep the big-int path.
_NUMPY_SPAN_BYTES = 1024


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


def _normalize_regions(regions: Sequence[Sequence[int]],
                       page_size: int) -> List[Tuple[int, int]]:
    """Clip, sort, and merge overlapping/adjacent (start, end) extents."""
    spans: List[Tuple[int, int]] = []
    for start, end in regions:
        start = max(0, start)
        end = min(page_size, end)
        if end > start:
            spans.append((start, end))
    if not spans:
        return []
    spans.sort()
    merged: List[List[int]] = [list(spans[0])]
    for start, end in spans[1:]:
        if start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _changed_runs(twin, current, lo: int, hi: int, merge_gap: int,
                  out: List[List[int]]) -> None:
    """Append the changed runs of ``[lo, hi)`` to ``out``, already
    coalesced under ``merge_gap``.

    ``twin``/``current`` are buffers supporting slicing (bytes or
    memoryview). A clean span costs one memcmp; otherwise a big-int XOR
    turns the span into a changed-byte mask and run boundaries come
    from C-level ``find``/``rfind``. Runs separated by at least
    ``merge_gap`` unchanged bytes split exactly where a byte-by-byte
    scan with the same policy would split, so scanning for the gap
    pattern directly keeps dense pages (alternating changed bytes) at
    a handful of C calls instead of one Python iteration per run.
    """
    if twin[lo:hi] == current[lo:hi]:  # one memcmp settles a clean span
        return
    if hi - lo >= _NUMPY_SPAN_BYTES:
        _changed_runs_numpy(twin, current, lo, hi, merge_gap, out)
        return
    gap = b"\x00" * max(1, merge_gap)
    xor = (int.from_bytes(twin[lo:hi], "little")
           ^ int.from_bytes(current[lo:hi], "little"))
    mask = xor.to_bytes(hi - lo, "little").translate(_NONZERO)
    start = mask.find(1)
    while start >= 0:
        split = mask.find(gap, start)
        if split < 0:
            out.append([lo + start, lo + mask.rfind(1) + 1])
            break
        out.append([lo + start, lo + mask.rfind(1, start, split) + 1])
        start = mask.find(1, split + len(gap))


def _changed_runs_numpy(twin, current, lo: int, hi: int, merge_gap: int,
                        out: List[List[int]]) -> None:
    """Numpy variant of :func:`_changed_runs` for long spans.

    All run boundaries are found with a constant number of vectorized
    passes: the changed-byte indices, the places where consecutive
    changed bytes are separated by an unchanged gap wide enough to
    split runs, and one fancy-index gather of the resulting run
    starts/ends. Two changed bytes at indices ``i < j`` belong to the
    same run exactly when the unchanged gap ``j - i - 1`` is smaller
    than ``merge_gap`` (and adjacent changed bytes, gap 0, always
    share a run), matching the reference scan's policy.
    """
    a = np.frombuffer(twin, dtype=np.uint8)
    b = np.frombuffer(current, dtype=np.uint8)
    idx = np.flatnonzero(a[lo:hi] != b[lo:hi])
    if idx.size == 0:
        return
    splits = np.flatnonzero(np.diff(idx) > max(merge_gap, 1))
    k = splits.size
    st = np.empty(k + 1, dtype=np.intp)
    st[0] = 0
    st[1:] = splits
    st[1:] += 1
    en = np.empty(k + 1, dtype=np.intp)
    en[:k] = splits
    en[k] = idx.size - 1
    starts = (idx[st] + lo).tolist()
    ends = (idx[en] + (lo + 1)).tolist()
    for start, end in zip(starts, ends):
        out.append([start, end])


def compute_diff(page_id: int, twin: bytes, current: bytes,
                 merge_gap: int = 8,
                 regions: Optional[Sequence[Sequence[int]]] = None) -> Diff:
    """Compare ``current`` against ``twin`` and return the changed runs.

    ``merge_gap``: adjacent changed runs separated by fewer than this
    many unchanged bytes are merged into one run -- real diff engines do
    this (word-granularity scans) and it keeps run counts realistic.

    ``regions``: optional iterable of ``(start, end)`` written extents.
    When given, only those spans are scanned -- the dirty-region fast
    path. The caller guarantees every changed byte lies inside the
    union of the regions; the result is then identical to a full scan.
    """
    n = len(twin)
    if n != len(current):
        raise MemoryError_(
            f"twin/page size mismatch: {n} vs {len(current)}")
    if regions is None:
        if twin == current:
            return Diff(page_id, ())
        spans: List[Tuple[int, int]] = [(0, n)]
    else:
        spans = _normalize_regions(regions, n)
    raw: List[List[int]] = []
    # memoryviews make the block compares and XOR slices zero-copy.
    mv_twin, mv_cur = memoryview(twin), memoryview(current)
    for lo, hi in spans:
        _changed_runs(mv_twin, mv_cur, lo, hi, merge_gap, raw)
    if not raw:
        return Diff(page_id, ())
    # Coalesce across stretch/span boundaries (in-stretch coalescing
    # already happened in _changed_runs). Gap bytes are unchanged, so
    # a merged run's payload (sliced from current) is identical to what
    # the byte-by-byte reference scan produces.
    merged: List[List[int]] = [raw[0]]
    for run in raw[1:]:
        if run[0] - merged[-1][1] < merge_gap:
            merged[-1][1] = run[1]
        else:
            merged.append(run)
    return Diff(page_id, tuple(
        (start, bytes(current[start:end])) for start, end in merged))


def compute_diff_reference(page_id: int, twin: bytes, current: bytes,
                           merge_gap: int = 8) -> Diff:
    """Byte-by-byte reference implementation of :func:`compute_diff`.

    Kept for the equivalence property tests and the perf-regression
    harness (the vectorized engine's speedup is measured against this).
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
