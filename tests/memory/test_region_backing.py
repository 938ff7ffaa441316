"""The demand-zero backing of MemoryRegion / PageStore.

A region reads as zeros until written, every access path aliases the
same bytes, and the host pays for touched pages only: constructing a
runtime must not make its full-address-space stores resident.
"""

import copy
import gc
import io
import os
import pickle
import sys

import numpy as np
import pytest

from repro.apps.synthetic import SyntheticWorkload
from repro.errors import MemoryError_
from repro.harness.experiments import evaluation_config, run_app
from repro.harness.runner import SvmRuntime
from repro.memory import PageStore
from repro.net import regions
from repro.net.regions import MemoryRegion

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads /proc/self/statm and /proc/self/maps")

MB = 1 << 20


def test_fresh_region_reads_as_zeros():
    region = MemoryRegion("r", 3 * 4096 + 17)  # not a page multiple
    assert region.read(0, region.size) == bytes(region.size)
    assert region.read(4090, 20) == bytes(20)
    assert not np.frombuffer(region.view(), dtype=np.uint8).any()
    assert len(region.view()) == region.size


def test_read_returns_an_immutable_copy():
    region = MemoryRegion("r", 64)
    region.write(8, b"abcd")
    snapshot = region.read(8, 4)
    assert type(snapshot) is bytes
    region.write(8, b"wxyz")
    assert snapshot == b"abcd"


@pytest.mark.parametrize("offset,length", [
    (-1, 4), (0, -1), (60, 8), (64, 1), (1 << 40, 1)])
def test_out_of_range_access_rejected(offset, length):
    region = MemoryRegion("r", 64)
    with pytest.raises(MemoryError_):
        region.read(offset, length)
    if length >= 0:
        with pytest.raises(MemoryError_):
            region.write(offset, bytes(length))
        with pytest.raises(MemoryError_):
            region.write(offset, memoryview(bytearray(length)))
    assert region.read(0, 64) == bytes(64)


def test_out_of_range_pages_and_spans_rejected():
    store = PageStore("s", 4, 128)
    for page in (-1, 4):
        with pytest.raises(MemoryError_):
            store.page_view(page)
    with pytest.raises(MemoryError_):
        store.read(4 * 128 - 2, 4)
    with pytest.raises(MemoryError_):
        store.write(-1, b"ab")
    with pytest.raises(MemoryError_):
        store.read_span(3, 126, 4)
    with pytest.raises(MemoryError_):
        store.write_span(0, -1, b"ab")


def test_write_whose_byte_length_differs_is_rejected_not_resized():
    # len() of a multi-byte view counts items, not bytes: a bytearray
    # backing silently resized on this store.
    region = MemoryRegion("r", 64)
    words = memoryview(np.arange(4, dtype=np.uint32))
    assert len(words) == 4 and words.nbytes == 16
    with pytest.raises(MemoryError_):
        region.write(0, words)
    assert len(region.view()) == 64
    region.write(0, words.cast("B"))  # as bytes: stores all 16
    assert region.read(0, 16) == words.tobytes()


def test_every_access_path_aliases_the_same_bytes():
    store = PageStore("s", 4, 128)
    flat = np.frombuffer(store.view(), dtype=np.uint8)
    # A span crossing the page 1 / page 2 boundary.
    addr, span = 2 * 128 - 5, bytes(range(1, 11))
    store.write(addr, span)
    assert store.read(addr, 10) == span
    assert bytes(store.page_view(1)[-5:]) == span[:5]
    assert bytes(store.page_view(2)[:5]) == span[5:]
    assert store.read_span(2, 0, 5) == span[5:]
    assert flat[addr:addr + 10].tobytes() == span
    # Stores through each writable alias show through all the others.
    store.page_view(2)[0:2] = b"\xaa\xbb"
    assert store.read(2 * 128, 2) == b"\xaa\xbb"
    store.write_span(1, 127, b"\xcc")
    assert store.page_view(1)[-1] == 0xcc
    flat[addr] = 0xdd
    assert store.read_page(1)[-5] == 0xdd
    store.write(addr + 8, memoryview(b"\xee\xff"))
    assert flat[addr + 8:addr + 10].tobytes() == b"\xee\xff"
    store.view()[0:3] = b"xyz"
    assert store.read(0, 3) == b"xyz"


def test_regions_are_node_state_never_pickled_or_copied():
    region = MemoryRegion("r", 64)
    with pytest.raises(TypeError):
        pickle.dumps(region)
    with pytest.raises(TypeError):
        copy.deepcopy(region)
    # What does get pickled -- checkpointed kernel state during the
    # run, the result a pool worker ships back -- holds no region, and
    # no simulation object either: the compiled kernel's cannot be
    # pickled, and the pure kernel's would drag the whole run along.
    result = run_app("FFT", "ft", scale="test")
    assert result.counters.total.checkpoints > 0
    assert pickle.loads(pickle.dumps(result)).elapsed_us == result.elapsed_us
    modules = set()

    class ModuleSpy(pickle.Pickler):
        def reducer_override(self, obj):
            cls = obj if isinstance(obj, type) else type(obj)
            modules.add(cls.__module__)
            return NotImplemented

    ModuleSpy(io.BytesIO()).dump(result)
    assert "repro.harness.runner" in modules
    assert not [m for m in modules if m.startswith("repro.sim")], modules


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_workers_stores_stay_in_the_worker():
    # Pool workers fork: the mapping must be private, not mmap's
    # default shared one.
    region = MemoryRegion("r", 8192)
    region.write(0, b"parent")
    pid = os.fork()
    if pid == 0:
        region.write(0, b"child!")
        region.write(4096, b"child!")
        os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    assert region.read(0, 6) == b"parent"
    assert region.read(4096, 6) == bytes(6)


def test_platform_without_map_flags_or_madvise(monkeypatch):
    monkeypatch.setattr(regions, "_MAP_FLAGS", None)
    monkeypatch.setattr(regions, "_MADV_NOHUGEPAGE", None)
    region = MemoryRegion("r", 8192)
    assert region.read(0, 8192) == bytes(8192)
    region.write(4090, b"0123456789")
    assert region.read(4090, 10) == b"0123456789"


# -- what the host pays -------------------------------------------------------

def _rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _map_count() -> int:
    with open("/proc/self/maps") as maps:
        return sum(1 for _ in maps)


def _ft_runtime(num_nodes: int) -> SvmRuntime:
    """2048 x 4 KB pages: an 8 MB segment, three stores a node."""
    return SvmRuntime(
        evaluation_config("ft", num_nodes=num_nodes, page_size=4096),
        SyntheticWorkload(iterations=1, pages_per_interval=16))


@linux_only
@pytest.mark.parametrize("num_nodes,limit_mb", [(8, 8), (32, 16)])
def test_constructing_a_runtime_does_not_make_its_stores_resident(
        num_nodes, limit_mb):
    # 8 nodes x 3 stores x 8 MB = 192 MB of address space (768 MB at
    # 32 nodes); a memset backing made all of it resident here.
    gc.collect()
    before = _rss_bytes()
    runtime = _ft_runtime(num_nodes)
    grown = _rss_bytes() - before
    assert len(runtime.agents) == num_nodes
    assert grown < limit_mb * MB, f"RSS grew {grown / MB:.1f} MB"


@linux_only
def test_touched_pages_are_what_becomes_resident():
    # Also under transparent huge pages: one touched 4 KB page must not
    # bring 2 MB in (the touches below are 256 KB apart).
    gc.collect()
    before = _rss_bytes()
    store = PageStore("s", 8192, 4096)  # 32 MB of address space
    for page in range(0, 8192, 64):  # touch 128 pages = 512 KB
        store.write_span(page, 0, b"\x01")
    grown = _rss_bytes() - before
    assert grown < 2 * MB, f"RSS grew {grown / MB:.1f} MB"


@linux_only
def test_dropped_runtimes_give_their_mappings_back():
    _ft_runtime(8)  # warm the allocator's own arenas
    gc.collect()
    before = _map_count()
    live = _ft_runtime(8)
    assert _map_count() > before  # the stores are real mappings
    del live
    for _ in range(50):
        _ft_runtime(8)
    gc.collect()
    # 50 x 40 regions: a leak would leave hundreds of lines; the
    # allowance is for an obmalloc arena that happens to stay in use.
    assert _map_count() <= before + 4
