"""Ocean: nearest-neighbour stencil relaxation (SPLASH-2's Ocean
family, the canonical DSM boundary-exchange pattern).

Not part of the paper's six evaluated applications, but the missing
sharing pattern in that suite: a red-black Gauss-Seidel relaxation on
a 2-D grid with row-band decomposition. Each thread updates its own
band (owner-computes, home pages) and reads only the two *boundary
rows* of its neighbours each sweep -- so unlike FFT's all-to-all
transposes, communication is O(perimeter) while computation is
O(area). Under the extended protocol this is the best case the
dual-home design can hope for: almost all diffs are home pages, and
the per-sweep communication is two rows per thread.

Red-black ordering makes the parallel update order-independent, so the
result is verified bit-exactly against a serial sweep.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError

#: Modelled CPU cost of relaxing one grid point.
POINT_US = 0.15
#: SOR relaxation factor.
OMEGA = 1.0
#: Seed of the initial grid.
SEED = 31


class Ocean(Workload):
    """Red-black SOR relaxation with band decomposition."""

    name = "Ocean"

    def __init__(self, n: int = 32, sweeps: int = 4) -> None:
        self.n = n
        self.sweeps = sweeps
        self.grid = None

    _ITEM = 8

    def _rows(self, tid: int, nthreads: int) -> range:
        """Interior rows owned by thread ``tid`` (rows 1..n-2)."""
        interior = self.n - 2
        per = interior // nthreads
        lo = 1 + tid * per
        hi = self.n - 1 if tid == nthreads - 1 else lo + per
        return range(lo, hi)

    def _row_addr(self, row: int) -> int:
        return self.grid.addr(row * self.n * self._ITEM)

    def setup(self, runtime) -> None:
        total = runtime.config.total_threads
        nodes = runtime.config.num_nodes
        page_size = runtime.config.page_size
        row_bytes = self.n * self._ITEM

        def band_home(page_index: int) -> int:
            row = page_index * page_size // row_bytes
            for tid in range(total):
                rows = self._rows(tid, total)
                if row in rows or (tid == 0 and row < rows.start) or \
                        (tid == total - 1 and row >= rows.stop):
                    return tid % nodes
            return 0

        self.grid = runtime.alloc("ocean_grid",
                                  self.n * self.n * self._ITEM,
                                  home=band_home)

    def _initial_grid(self) -> np.ndarray:
        rng = np.random.default_rng(SEED)
        grid = rng.uniform(0.0, 1.0, size=(self.n, self.n))
        # Fixed boundary conditions.
        grid[0, :] = 1.0
        grid[-1, :] = 0.0
        grid[:, 0] = 0.5
        grid[:, -1] = 0.5
        return grid

    def init_kernel(self, ctx: AppContext):
        grid = self._initial_grid()
        rows = self._rows(ctx.tid, ctx.nthreads)
        start = 0 if ctx.tid == 0 else rows.start
        stop = self.n if ctx.tid == ctx.nthreads - 1 else rows.stop
        # Rows are contiguous in the flat grid: one batched span write
        # instead of a per-row loop.
        yield from ctx.svm.write_array(self._row_addr(start),
                                       grid[start:stop])
        return None

    @staticmethod
    def _relax_row(above, row, below, colour, row_index, omega):
        """One red-black half-sweep of one row (pure numpy)."""
        out = row.copy()
        start = 1 + ((row_index + colour) % 2)
        idx = np.arange(start, len(row) - 1, 2)
        if len(idx):
            neighbours = (above[idx] + below[idx]
                          + row[idx - 1] + row[idx + 1]) / 4.0
            out[idx] = (1 - omega) * row[idx] + omega * neighbours
        return out

    def kernel(self, ctx: AppContext):
        rows = self._rows(ctx.tid, ctx.nthreads)
        for sweep in ctx.range("sweep", self.sweeps):
            for colour in (0, 1):
                if ctx.pending(("half", sweep, colour)):
                    # Read our band plus one halo row on each side,
                    # compute the half-sweep, write back our rows.
                    halo_lo = rows.start - 1
                    halo_hi = rows.stop + 1
                    raw = yield from ctx.svm.read_array(
                        self._row_addr(halo_lo), np.float64,
                        (halo_hi - halo_lo) * self.n)
                    band = raw.reshape(halo_hi - halo_lo, self.n)
                    yield from ctx.svm.compute(
                        POINT_US * len(rows) * self.n / 2)
                    for row in rows:
                        local = row - halo_lo
                        band[local] = self._relax_row(
                            band[local - 1], band[local],
                            band[local + 1], colour, row, OMEGA)
                    # A colour-c update reads only colour-(1-c)
                    # neighbours, so updating ``band`` in place and
                    # writing the whole contiguous band back in one
                    # span is value-identical to the per-row loop.
                    yield from ctx.svm.write_array(
                        self._row_addr(rows.start),
                        band[rows.start - halo_lo:rows.stop - halo_lo])
                    ctx.done(("half", sweep, colour))
                yield from ctx.barrier(self.BARRIER_A,
                                       key=(sweep, colour))
        return None

    # -- verification --------------------------------------------------------

    def _serial_reference(self, nthreads: int) -> np.ndarray:
        grid = self._initial_grid()
        for _sweep in range(self.sweeps):
            for colour in (0, 1):
                for row in range(1, self.n - 1):
                    # In-place is exact: a colour-c update reads only
                    # colour-(1-c) neighbours, untouched this half.
                    grid[row] = self._relax_row(
                        grid[row - 1], grid[row], grid[row + 1],
                        colour, row, OMEGA)
        return grid

    def verify(self, runtime) -> None:
        total = runtime.config.total_threads
        want = self._serial_reference(total)
        got = runtime.debug_read_array(
            self.grid.addr(0), np.float64,
            self.n * self.n).reshape(self.n, self.n)
        if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
            raise ApplicationError("Ocean grid diverges from the "
                                   "serial red-black reference")
