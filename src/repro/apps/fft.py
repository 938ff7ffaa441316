"""FFT: SPLASH-2's six-step 1-D FFT (paper configuration: 1M points).

The n-point data set is laid out as a sqrt(n) x sqrt(n) complex matrix,
row blocks distributed across threads and homed at their owners
("owner computes"). Computation alternates local row FFTs with
all-to-all matrix transposes separated by barriers; there is no lock
synchronization.

Sharing characteristics reproduced (paper section 5.3):

* every write goes to pages whose (primary) home is the writer, so the
  base protocol sends *no* diffs, while the extended protocol diffs
  every written page twice -- FFT's dominant overhead source;
* communication happens in the transpose phases, where each thread
  reads every other thread's rows (whole-page fetches).

The arithmetic is real: the kernel performs the actual row/column FFTs
with numpy on bytes living in shared pages, and ``verify`` compares the
final result against ``numpy.fft.fft`` of the input.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError

#: Modelled CPU cost of one radix-2 butterfly stage element, in us.
#: Calibrated for a ~400 MHz processor (tens of ns per complex op).
COMPUTE_US_PER_POINT_LOG = 0.5
#: Modelled cost of the twiddle multiplication per element.
TWIDDLE_US_PER_POINT = 0.2
#: Input seed: thread t's points come from ``default_rng(SEED + t)``.
SEED = 42


class FFT(Workload):
    """Six-step FFT over a sqrt(n) x sqrt(n) complex matrix."""

    name = "FFT"

    def __init__(self, points: int = 16384) -> None:
        side = int(round(points ** 0.5))
        if side * side != points or side & (side - 1):
            raise ApplicationError(
                "FFT needs a power-of-4 point count (n = side^2 with "
                f"power-of-two side); got {points}")
        self.n = points
        self.side = side
        self.src = None
        self.dst = None

    # 16 bytes per complex128 element.
    _ITEM = 16

    def _row_block(self, tid: int, nthreads: int) -> range:
        rows_per = self.side // nthreads
        lo = tid * rows_per
        hi = self.side if tid == nthreads - 1 else lo + rows_per
        return range(lo, hi)

    def setup(self, runtime) -> None:
        total = runtime.config.total_threads
        nodes = runtime.config.num_nodes
        nbytes = self.n * self._ITEM
        page_size = runtime.config.page_size
        pages = -(-nbytes // page_size)

        def owner_home(page_index: int) -> int:
            # Home each page at the node of the thread owning its rows.
            row = page_index * page_size // (self.side * self._ITEM)
            rows_per = max(self.side // total, 1)
            tid = min(row // rows_per, total - 1)
            return tid % nodes

        self.src = runtime.alloc("fft_src", nbytes, home=owner_home)
        self.dst = runtime.alloc("fft_dst", nbytes, home=owner_home)

    def _row_addr(self, seg, row: int) -> int:
        return seg.addr(row * self.side * self._ITEM)

    def init_kernel(self, ctx: AppContext):
        rng = np.random.default_rng(SEED + ctx.tid)
        rows = self._row_block(ctx.tid, ctx.nthreads)
        # Per-row draws keep the rng stream identical to the original
        # loop; the row block is contiguous, so one span write suffices.
        block = np.empty((len(rows), self.side), dtype=np.complex128)
        for bi in range(len(rows)):
            block[bi] = (rng.standard_normal(self.side)
                         + 1j * rng.standard_normal(self.side))
        yield from ctx.svm.write_array(
            self._row_addr(self.src, rows.start), block)
        return None

    def kernel(self, ctx: AppContext):
        import math
        rows = self._row_block(ctx.tid, ctx.nthreads)
        log_side = int(math.log2(self.side))

        # Step 1: transpose src -> dst (read others' columns).
        if ctx.pending("t1"):
            yield from self._transpose(ctx, self.src, self.dst)
            ctx.done("t1")
        yield from ctx.barrier(self.BARRIER_A)

        # Step 2+3: row FFTs on dst, then twiddle. The row block is
        # contiguous, so the whole phase is one span read, per-row
        # compute charges, and one span write-back (no other thread
        # touches these rows until the next barrier).
        if ctx.pending("fft1"):
            block = yield from ctx.svm.read_array(
                self._row_addr(self.dst, rows.start), np.complex128,
                len(rows) * self.side)
            block = block.reshape(len(rows), self.side)
            col = np.arange(self.side)
            for bi, row in enumerate(rows):
                yield from ctx.svm.compute(
                    COMPUTE_US_PER_POINT_LOG * self.side * log_side)
                out = np.fft.fft(block[bi])
                tw = np.exp(-2j * np.pi * row * col / self.n)
                yield from ctx.svm.compute(
                    TWIDDLE_US_PER_POINT * self.side)
                block[bi] = out * tw
            yield from ctx.svm.write_array(
                self._row_addr(self.dst, rows.start), block)
            ctx.done("fft1")
        yield from ctx.barrier(self.BARRIER_B)

        # Step 4: transpose dst -> src.
        if ctx.pending("t2"):
            yield from self._transpose(ctx, self.dst, self.src)
            ctx.done("t2")
        yield from ctx.barrier(self.BARRIER_C)

        # Step 5: row FFTs on src (same batched structure as fft1).
        if ctx.pending("fft2"):
            block = yield from ctx.svm.read_array(
                self._row_addr(self.src, rows.start), np.complex128,
                len(rows) * self.side)
            block = block.reshape(len(rows), self.side)
            for bi in range(len(rows)):
                yield from ctx.svm.compute(
                    COMPUTE_US_PER_POINT_LOG * self.side * log_side)
                block[bi] = np.fft.fft(block[bi])
            yield from ctx.svm.write_array(
                self._row_addr(self.src, rows.start), block)
            ctx.done("fft2")
        yield from ctx.barrier(3)

        # Step 6: final transpose src -> dst.
        if ctx.pending("t3"):
            yield from self._transpose(ctx, self.src, self.dst)
            ctx.done("t3")
        yield from ctx.barrier(4)
        return None

    def _transpose(self, ctx: AppContext, src, dst):
        """Write the transpose of ``src`` into our rows of ``dst``.

        Reads column slices (other threads' rows), writes only our own
        row block -- the owner-computes pattern that makes all FFT
        writes land on home pages.
        """
        my_rows = self._row_block(ctx.tid, ctx.nthreads)
        for other in range(ctx.nthreads):
            src_rows = self._row_block(other, ctx.nthreads)
            # Gather src[src_rows, my_rows] and scatter transposed.
            block = np.empty((len(src_rows), len(my_rows)),
                             dtype=np.complex128)
            for bi, srow in enumerate(src_rows):
                addr = (self._row_addr(src, srow)
                        + my_rows.start * self._ITEM)
                row_slice = yield from ctx.svm.read_array(
                    addr, np.complex128, len(my_rows))
                block[bi] = row_slice
            yield from ctx.svm.compute(0.2 * block.size)
            for bi, drow in enumerate(my_rows):
                addr = (self._row_addr(dst, drow)
                        + src_rows.start * self._ITEM)
                yield from ctx.svm.write_array(addr, block[:, bi].copy())
        return None

    def verify(self, runtime) -> None:
        # Reconstruct the input deterministically and compare with the
        # 2-D decomposition result: the six-step algorithm computes the
        # full 1-D FFT of the row-major input.
        total = runtime.config.total_threads
        side = self.side
        matrix = np.empty((side, side), dtype=np.complex128)
        for tid in range(total):
            rng = np.random.default_rng(SEED + tid)
            for row in self._row_block(tid, total):
                matrix[row] = (rng.standard_normal(side)
                               + 1j * rng.standard_normal(side))
        expected = np.fft.fft(matrix.reshape(-1))
        got = runtime.debug_read_array(
            self.dst.addr(0), np.complex128, self.n)
        # The sixth (final) transpose restores natural order: dst read
        # row-major is exactly the 1-D FFT of the row-major input.
        if not np.allclose(got, expected, rtol=1e-9, atol=1e-9):
            raise ApplicationError("FFT result does not match numpy.fft")
