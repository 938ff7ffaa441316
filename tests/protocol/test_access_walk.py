"""The one access path: ``SvmNodeAgent.read`` / ``write`` walk the
touched pages in address order, fault exactly where mprotect would and
copy each page's chunk as soon as that page is accessible. Every
``SvmThread`` accessor is a codec over the two.

There is no second path to compare against, so the oracle here is the
API itself: one span access and the same bytes moved element by element
must be indistinguishable in memory, simulated time and counters.
"""

import numpy as np

from repro.apps.base import Workload
from repro.config import ClusterConfig, ProtocolParams
from repro.harness.runner import SvmRuntime

PAGE = 512

#: Counters that must not move between a span access and its
#: element-by-element spelling.
PINNED_COUNTERS = ("page_faults", "read_faults", "write_faults",
                   "twins_created", "pages_diffed", "diff_bytes_sent")


def run_probe(kernel):
    """Run ``kernel(ctx, seg)`` on every thread of a 2-node FT cluster
    with 512 B pages over an 8-page segment; returns ``(runtime,
    result)``."""

    class Probe(Workload):
        name = "probe"

        def setup(self, runtime):
            self.seg = runtime.alloc("probe", 8 * PAGE, home="block")

        def kernel(self, ctx):
            yield from kernel(ctx, self.seg)

    config = ClusterConfig(
        num_nodes=2, threads_per_node=1, shared_pages=32,
        num_locks=16, seed=5,
        page_size=PAGE,
        protocol=ProtocolParams(variant="ft"))
    runtime = SvmRuntime(config, Probe())
    return runtime, runtime.run()


def test_span_accessors_round_trip():
    """read/write and read_array/write_array see the bytes written,
    mapped and across a post-invalidation fault on the other node."""
    payload = np.arange(160, dtype=np.int64)  # 1280 B: multi-page span
    probe = {}

    def kernel(ctx, seg):
        if ctx.tid == 0:
            yield from ctx.svm.write(seg.addr(0), payload.tobytes())
            probe["raw"] = yield from ctx.svm.read(seg.addr(0),
                                                   payload.nbytes)
            yield from ctx.svm.write_array(seg.addr(0),
                                           payload[::-1].copy())
            probe["back"] = yield from ctx.svm.read_array(
                seg.addr(0), np.int64, len(payload))
        yield from ctx.barrier(Workload.BARRIER_A)
        if ctx.tid == 1:
            probe["remote"] = yield from ctx.svm.read_array(
                seg.addr(0), np.int64, len(payload))

    run_probe(kernel)
    assert probe["raw"] == payload.tobytes()
    assert np.array_equal(probe["back"], payload[::-1])
    assert np.array_equal(probe["remote"], payload[::-1])


def test_span_access_equals_element_by_element_access():
    values = np.arange(1, 161, dtype=np.int64)  # pages 0..2 from byte 24
    base = 24

    def span_write(ctx, addr, array):
        yield from ctx.svm.write_array(addr, array)

    def span_read(ctx, addr, count):
        return (yield from ctx.svm.read_array(addr, np.int64, count))

    def element_write(ctx, addr, array):
        for i, value in enumerate(array):
            yield from ctx.svm.write_i64(addr + 8 * i, int(value))

    def element_read(ctx, addr, count):
        out = np.empty(count, dtype=np.int64)
        for i in range(count):
            out[i] = yield from ctx.svm.read_i64(addr + 8 * i)
        return out

    def run_with(write, read):
        seen = {}

        def kernel(ctx, seg):
            addr = seg.addr(base)
            if ctx.tid == 0:
                yield from write(ctx, addr, values)
            yield from ctx.barrier(Workload.BARRIER_A)
            if ctx.tid == 1:
                # Faults on every page, then dirties them all.
                got = yield from read(ctx, addr, len(values))
                yield from write(ctx, addr, got * 3)
            yield from ctx.barrier(Workload.BARRIER_B)
            if ctx.tid == 0:
                seen["final"] = yield from read(ctx, addr, len(values))

        runtime, result = run_probe(kernel)
        assert np.array_equal(seen["final"], values * 3)
        return dict(
            memory=runtime.debug_read(0, 8 * PAGE),
            elapsed_us=result.elapsed_us,
            counters={name: getattr(result.counters.total, name)
                      for name in PINNED_COUNTERS})

    span = run_with(span_write, span_read)
    elementwise = run_with(element_write, element_read)
    assert span["counters"]["page_faults"] > 0
    assert span == elementwise


def test_multi_page_write_reports_page_relative_chunks_in_order():
    start = 300  # pages 0 (from byte 300), 1 (whole), 2 (to byte 200)
    payload = bytes(range(256)) * 4
    payload = payload[:(PAGE - start) + PAGE + 200]
    seen = {}

    def kernel(ctx, seg):
        if ctx.tid == 0:
            agent = ctx.svm.agent
            first = seg.page(0)
            # Map the two outer pages for writing; the middle one stays
            # INVALID, so the walk faults after storing page 0's chunk.
            yield from ctx.svm.write(seg.addr(start), b"\x00")
            yield from ctx.svm.write(seg.addr(2 * PAGE), b"\x00")
            faults = agent.counters.write_faults
            chunks = []
            agent.write_observer = \
                lambda page, offset, data: chunks.append(
                    (page - first, offset, data))
            yield from ctx.svm.write(seg.addr(start), payload)
            agent.write_observer = None
            seen["chunks"] = chunks
            seen["faults"] = agent.counters.write_faults - faults
        yield from ctx.barrier(Workload.BARRIER_A)

    runtime, _result = run_probe(kernel)
    chunks = seen["chunks"]
    assert seen["faults"] == 1
    assert [(page, offset) for page, offset, _data in chunks] == \
        [(0, start), (1, 0), (2, 0)]
    assert b"".join(data for _page, _offset, data in chunks) == payload
    assert runtime.debug_read(start, len(payload)) == payload


def test_write_array_takes_2d_and_non_contiguous_arrays():
    grid = np.arange(96, dtype=np.float64).reshape(8, 12)  # 768 B
    strided = np.arange(200, dtype=np.int64)[::2]  # 100 items, stride 16
    seen = {}

    def kernel(ctx, seg):
        if ctx.tid == 0:
            yield from ctx.svm.write_array(seg.addr(8), grid)
            seen["grid"] = yield from ctx.svm.read_array(
                seg.addr(8), np.float64, grid.size)
            yield from ctx.svm.write_array(seg.addr(4 * PAGE), strided)
            seen["strided"] = yield from ctx.svm.read_array(
                seg.addr(4 * PAGE), np.int64, len(strided))
        yield from ctx.barrier(Workload.BARRIER_A)

    run_probe(kernel)
    assert not strided.flags.c_contiguous
    assert np.array_equal(seen["grid"].reshape(grid.shape), grid)
    assert np.array_equal(seen["strided"], strided)
