"""KVStore: a server-style transactional workload.

The paper's future-work section asks how the approach performs on "a
broader application domain that includes server and other
non-scientific applications" (section 6). This workload is that
experiment: a partitioned key-value store processing read-modify-write
transactions under per-bucket locks -- the sharing pattern of a
transaction-processing backend rather than a scientific kernel:

* fine-grained, high-frequency lock traffic (like Water-Nsquared but
  with *random* access: no owner-computes locality at all);
* every transaction is a cross-bucket RMW, so replay correctness
  leans fully on the advance-before-release contract;
* a deterministic per-thread operation stream makes the final store
  contents verifiable against a serial replay.

Each transaction transfers an amount between two buckets (credit /
debit under two locks in canonical order -- the classic deadlock-free
discipline) and bumps a per-bucket version counter; verification
replays the global, timestamp-ordered transaction history serially.
Conservation (the grand total never changes) doubles as an invariant.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError

#: Modelled CPU cost of transaction logic around the shared accesses.
TXN_US = 8.0


class KVStore(Workload):
    """Bank-style transfers over a lock-partitioned shared table."""

    name = "KVStore"

    def __init__(self, buckets: int = 32, txns_per_thread: int = 12,
                 initial_balance: int = 1000, seed: int = 29) -> None:
        self.buckets = buckets
        self.txns = txns_per_thread
        self.initial = initial_balance
        self.seed = seed
        self.table = None   # per-bucket: [balance, version] int64 pairs

    _ROW = 16  # two int64 per bucket

    def bucket_lock(self, bucket: int) -> int:
        return 1 + bucket

    def _row_addr(self, bucket: int) -> int:
        return self.table.addr(bucket * self._ROW)

    def setup(self, runtime) -> None:
        self.table = runtime.alloc("kv_table", self.buckets * self._ROW,
                                   home="round_robin")

    def init_kernel(self, ctx: AppContext):
        per = self.buckets // ctx.nthreads
        lo = ctx.tid * per
        hi = self.buckets if ctx.tid == ctx.nthreads - 1 else lo + per
        # Our bucket rows are contiguous: one batched span write of the
        # [balance, version] pairs.
        rows = np.zeros((hi - lo, 2), dtype=np.int64)
        rows[:, 0] = self.initial
        yield from ctx.svm.write_array(self._row_addr(lo), rows)
        return None

    def _stream(self, tid: int):
        """The deterministic transaction stream of one thread."""
        rng = np.random.default_rng(self.seed * 977 + tid)
        for _ in range(self.txns):
            src = int(rng.integers(0, self.buckets))
            dst = int(rng.integers(0, self.buckets - 1))
            if dst >= src:
                dst += 1
            amount = int(rng.integers(1, 50))
            yield src, dst, amount

    def kernel(self, ctx: AppContext):
        stream = list(self._stream(ctx.tid))
        for i in ctx.range("txn", len(stream)):
            src, dst, amount = stream[i]
            first, second = sorted((src, dst))
            yield from ctx.svm.acquire(self.bucket_lock(first))
            yield from ctx.svm.acquire(self.bucket_lock(second))
            yield from ctx.svm.compute(TXN_US)
            row_src = yield from ctx.svm.read_array(
                self._row_addr(src), np.int64, 2)
            row_dst = yield from ctx.svm.read_array(
                self._row_addr(dst), np.int64, 2)
            yield from ctx.svm.write_array(
                self._row_addr(src),
                np.array([row_src[0] - amount, row_src[1] + 1],
                         dtype=np.int64))
            yield from ctx.svm.write_array(
                self._row_addr(dst),
                np.array([row_dst[0] + amount, row_dst[1] + 1],
                         dtype=np.int64))
            # RMW replay contract: the continuation advances atomically
            # with the final shared write, before the releases.
            ctx.state["txn"] = i + 1
            yield from ctx.svm.release(self.bucket_lock(second))
            yield from ctx.svm.release(self.bucket_lock(first))
        yield from ctx.barrier(self.BARRIER_A)
        return None

    def verify(self, runtime) -> None:
        table = runtime.debug_read_array(
            self.table.addr(0), np.int64,
            2 * self.buckets).reshape(self.buckets, 2)
        total_threads = runtime.config.total_threads
        # Conservation: transfers never create or destroy balance.
        expected_total = self.buckets * self.initial
        if int(table[:, 0].sum()) != expected_total:
            raise ApplicationError(
                f"balance not conserved: {int(table[:, 0].sum())} != "
                f"{expected_total}")
        # Version counters: every transaction bumps exactly two rows.
        expected_versions = 2 * self.txns * total_threads
        if int(table[:, 1].sum()) != expected_versions:
            raise ApplicationError(
                f"version counters {int(table[:, 1].sum())} != "
                f"{expected_versions} (a transaction was lost or "
                "double-applied)")
        # Per-bucket net balance matches the serial replay of all
        # streams (transfers commute on balances).
        net = np.zeros(self.buckets, dtype=np.int64)
        for tid in range(total_threads):
            for src, dst, amount in self._stream(tid):
                net[src] -= amount
                net[dst] += amount
        expected = self.initial + net
        if not np.array_equal(table[:, 0], expected):
            raise ApplicationError("per-bucket balances diverge from "
                                   "the serial replay")
