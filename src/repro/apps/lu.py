"""LU: SPLASH-2's blocked dense LU factorization, contiguous layout
(paper configuration: 1024x1024 matrix).

The matrix is split into b x b blocks, each stored contiguously (the
"contiguous blocks" variant) and assigned to threads in a 2-D scatter;
every block is homed at its owner's node. Each elimination step runs
diagonal factorization, perimeter updates, and interior updates,
separated by barriers; there is no lock synchronization.

Like FFT, all writes go to the writer's own home pages: the base
protocol never diffs, the extended protocol diffs everything twice --
the paper reports the home-page diffing as roughly half of LU's total
overhead and the largest barrier-time blow-up in the SMP configuration.

The factorization is real (numpy block operations on shared bytes
without pivoting -- the generated matrix is made diagonally dominant),
and ``verify`` checks ||L*U - A|| is small.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError

#: Modelled cost of one fused multiply-add at ~400 MHz, in us.
FLOP_US = 0.04
#: Seed of the generated input matrix.
SEED = 7


class LU(Workload):
    """Blocked right-looking LU without pivoting."""

    name = "LU"

    def __init__(self, n: int = 128, block: int = 16) -> None:
        if n % block:
            raise ApplicationError("matrix size must be a multiple of the "
                                   "block size")
        self.n = n
        self.b = block
        self.nb = n // block  # blocks per dimension
        self.seg = None

    _ITEM = 8  # float64

    # -- ownership ---------------------------------------------------------

    def owner(self, bi: int, bj: int, nthreads: int) -> int:
        """2-D scatter decomposition of blocks onto threads."""
        pr = 1
        while (pr * 2) * (pr * 2) <= nthreads:
            pr *= 2
        pc = nthreads // pr
        return (bi % pr) * pc + (bj % pc)

    def _block_index(self, bi: int, bj: int) -> int:
        return bi * self.nb + bj

    def _block_addr(self, bi: int, bj: int) -> int:
        return self.seg.addr(self._block_index(bi, bj)
                             * self.b * self.b * self._ITEM)

    def setup(self, runtime) -> None:
        total = runtime.config.total_threads
        nodes = runtime.config.num_nodes
        block_bytes = self.b * self.b * self._ITEM
        page_size = runtime.config.page_size

        def home(page_index: int) -> int:
            block = page_index * page_size // block_bytes
            block = min(block, self.nb * self.nb - 1)
            bi, bj = divmod(block, self.nb)
            return self.owner(bi, bj, total) % nodes

        self.seg = runtime.alloc("lu_blocks",
                                 self.nb * self.nb * block_bytes,
                                 home=home)

    def _matrix(self) -> np.ndarray:
        """The deterministic input matrix (diagonally dominant)."""
        rng = np.random.default_rng(SEED)
        a = rng.standard_normal((self.n, self.n))
        a += np.eye(self.n) * self.n
        return a

    def init_kernel(self, ctx: AppContext):
        a = self._matrix()
        for bi in range(self.nb):
            for bj in range(self.nb):
                if self.owner(bi, bj, ctx.nthreads) != ctx.tid:
                    continue
                block = a[bi * self.b:(bi + 1) * self.b,
                          bj * self.b:(bj + 1) * self.b]
                yield from ctx.svm.write_array(
                    self._block_addr(bi, bj), np.ascontiguousarray(block))
        return None

    # -- kernel ------------------------------------------------------------

    def _read_block(self, ctx, bi, bj):
        flat = yield from ctx.svm.read_array(
            self._block_addr(bi, bj), np.float64, self.b * self.b)
        return flat.reshape(self.b, self.b)

    def _write_block(self, ctx, bi, bj, data):
        yield from ctx.svm.write_array(self._block_addr(bi, bj),
                                       np.ascontiguousarray(data))
        return None

    def kernel(self, ctx: AppContext):
        b = self.b
        for k in ctx.range("k", self.nb):
            # Phase 1: factor the diagonal block (its owner only).
            if self.owner(k, k, ctx.nthreads) == ctx.tid \
                    and ctx.pending(("diag", k)):
                akk = yield from self._read_block(ctx, k, k)
                yield from ctx.svm.compute(FLOP_US * (b ** 3) / 3)
                for col in range(b):
                    akk[col + 1:, col] /= akk[col, col]
                    akk[col + 1:, col + 1:] -= np.outer(
                        akk[col + 1:, col], akk[col, col + 1:])
                yield from self._write_block(ctx, k, k, akk)
                ctx.done(("diag", k))
            yield from ctx.barrier(self.BARRIER_A, key=k)

            # Phase 2: perimeter row and column blocks.
            if ctx.pending(("perim", k)):
                akk = yield from self._read_block(ctx, k, k)
                lower = np.tril(akk, -1) + np.eye(b)
                upper = np.triu(akk)
                for j in range(k + 1, self.nb):
                    if self.owner(k, j, ctx.nthreads) == ctx.tid:
                        akj = yield from self._read_block(ctx, k, j)
                        yield from ctx.svm.compute(FLOP_US * b ** 3 / 2)
                        akj = np.linalg.solve(lower, akj)
                        yield from self._write_block(ctx, k, j, akj)
                for i in range(k + 1, self.nb):
                    if self.owner(i, k, ctx.nthreads) == ctx.tid:
                        aik = yield from self._read_block(ctx, i, k)
                        yield from ctx.svm.compute(FLOP_US * b ** 3 / 2)
                        aik = np.linalg.solve(upper.T, aik.T).T
                        yield from self._write_block(ctx, i, k, aik)
                ctx.done(("perim", k))
            yield from ctx.barrier(self.BARRIER_B, key=k)

            # Phase 3: interior updates A[i,j] -= A[i,k] @ A[k,j].
            if ctx.pending(("inner", k)):
                for i in range(k + 1, self.nb):
                    for j in range(k + 1, self.nb):
                        if self.owner(i, j, ctx.nthreads) != ctx.tid:
                            continue
                        aik = yield from self._read_block(ctx, i, k)
                        akj = yield from self._read_block(ctx, k, j)
                        aij = yield from self._read_block(ctx, i, j)
                        yield from ctx.svm.compute(FLOP_US * 2 * b ** 3)
                        aij -= aik @ akj
                        yield from self._write_block(ctx, i, j, aij)
                ctx.done(("inner", k))
            yield from ctx.barrier(self.BARRIER_C, key=k)

            # Reset this step's phase markers so the ids can be reused
            # next step (their epoch is implied by k).
        return None

    def verify(self, runtime) -> None:
        n, b = self.n, self.b
        result = np.empty((n, n))
        for bi in range(self.nb):
            for bj in range(self.nb):
                flat = runtime.debug_read_array(
                    self._block_addr(bi, bj), np.float64, b * b)
                result[bi * b:(bi + 1) * b,
                       bj * b:(bj + 1) * b] = flat.reshape(b, b)
        lower = np.tril(result, -1) + np.eye(n)
        upper = np.triu(result)
        original = self._matrix()
        residual = np.abs(lower @ upper - original).max()
        if residual > 1e-6 * n:
            raise ApplicationError(
                f"LU residual too large: {residual:.3e}")
