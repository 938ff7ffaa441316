"""RadixLocal: SPLASH-2's parallel radix sort
(paper configuration: 4M integer keys).

Per digit pass: each thread histograms its own keys (local pages),
merges its counts into a shared global histogram under bucket-group
locks (the paper's 66 locks), thread 0 prefix-sums the histogram, and
every thread permutes its keys into the globally-ranked positions of
the destination array -- scattered writes across *other* threads' home
pages, which is why only ~12% of the pages this application diffs are
the writer's own home pages (the lowest of the suite) and why its
extended-protocol overhead is the smallest (20% / 24%).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError

#: Modelled cost of histogramming one key.
HIST_US_PER_KEY = 2.0
#: Modelled cost of permuting one key.
PERMUTE_US_PER_KEY = 4.0

#: Global locks: one per bucket group plus two coordination locks
#: (the paper's 66 = 64 + 2).
NUM_COORD_LOCKS = 2


class RadixSort(Workload):
    """LSD radix sort over int64 keys."""

    name = "RadixLocal"

    def __init__(self, keys: int = 2048, radix_bits: int = 4,
                 key_bits: int = 16, seed: int = 5) -> None:
        self.n = keys
        self.radix_bits = radix_bits
        self.radix = 1 << radix_bits
        self.key_bits = key_bits
        self.passes = key_bits // radix_bits
        self.seed = seed
        self.src = None
        self.dst = None
        self.hist = None

    _ITEM = 8

    def bucket_lock(self, bucket: int) -> int:
        return NUM_COORD_LOCKS + bucket

    def _my_range(self, ctx) -> range:
        per = self.n // ctx.nthreads
        lo = ctx.tid * per
        hi = self.n if ctx.tid == ctx.nthreads - 1 else lo + per
        return range(lo, hi)

    def setup(self, runtime) -> None:
        self.src = runtime.alloc("radix_a", self.n * self._ITEM,
                                 home="block")
        self.dst = runtime.alloc("radix_b", self.n * self._ITEM,
                                 home="block")
        # Global histogram: per-bucket total plus per-bucket/thread
        # offsets would be the full SPLASH structure; we keep the
        # per-bucket-per-thread matrix so ranks are exact.
        total = runtime.config.total_threads
        self.hist = runtime.alloc(
            "radix_hist", self.radix * (total + 1) * self._ITEM, home=0)

    def _keys(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, 1 << self.key_bits, size=self.n,
                            dtype=np.int64)

    def init_kernel(self, ctx: AppContext):
        keys = self._keys()
        rng_ = self._my_range(ctx)
        yield from ctx.svm.write_array(
            self.src.addr(rng_.start * self._ITEM),
            keys[rng_.start:rng_.stop])
        return None

    def _hist_addr(self, bucket: int, slot: int, nthreads: int) -> int:
        return self.hist.addr(
            (bucket * (nthreads + 1) + slot) * self._ITEM)

    def kernel(self, ctx: AppContext):
        nt = ctx.nthreads
        for p in ctx.range("pass", self.passes):
            # Derive the ping-pong buffers from the pass number (not a
            # running swap) so a replay resuming mid-sort picks the
            # correct direction.
            src_seg = self.src if p % 2 == 0 else self.dst
            dst_seg = self.dst if p % 2 == 0 else self.src
            shift = p * self.radix_bits
            mask = self.radix - 1
            rng_ = self._my_range(ctx)

            # Zero our column of the histogram (thread 0 zeroes totals).
            # Column slots are strided (bucket-major layout), so these
            # stay per-access; the scalar accessor writes the same
            # bytes as a one-element array without the numpy boxing.
            if ctx.pending("zero"):
                for b in range(self.radix):
                    yield from ctx.svm.write_i64(
                        self._hist_addr(b, ctx.tid + 1, nt), 0)
                    if ctx.tid == 0:
                        yield from ctx.svm.write_i64(
                            self._hist_addr(b, 0, nt), 0)
                ctx.done("zero")
            yield from ctx.barrier(self.BARRIER_A, key=p)

            # Local histogram of our keys.
            mine = yield from ctx.svm.read_array(
                src_seg.addr(rng_.start * self._ITEM), np.int64,
                len(rng_))
            yield from ctx.svm.compute(HIST_US_PER_KEY * len(rng_))
            buckets = (mine >> shift) & mask
            local_counts = np.bincount(buckets, minlength=self.radix)

            # Publish our per-bucket counts and add to the bucket
            # totals under the bucket-group locks (RMW).
            for b in ctx.range(("bkt", p), self.radix):
                count = int(local_counts[b])
                yield from ctx.svm.write_i64(
                    self._hist_addr(b, ctx.tid + 1, nt), count)
                yield from ctx.svm.acquire(self.bucket_lock(b))
                total = yield from ctx.svm.read_i64(
                    self._hist_addr(b, 0, nt))
                yield from ctx.svm.write_i64(
                    self._hist_addr(b, 0, nt), total + count)
                ctx.state[("bkt", p)] = b + 1  # RMW replay contract
                yield from ctx.svm.release(self.bucket_lock(b))
            yield from ctx.barrier(self.BARRIER_B, key=p)

            # Everybody reads the full histogram and computes global
            # ranks: rank(bucket, thread) = sum of totals of smaller
            # buckets + counts of lower-numbered threads in our bucket.
            flat = yield from ctx.svm.read_array(
                self.hist.addr(0), np.int64, self.radix * (nt + 1))
            table = flat.reshape(self.radix, nt + 1)
            bucket_base = np.concatenate(
                ([0], np.cumsum(table[:, 0])))[:-1]
            my_base = {
                b: int(bucket_base[b] + table[b, 1:ctx.tid + 1].sum())
                for b in range(self.radix)}

            # Permute our keys into the destination array (scattered
            # remote writes).
            if ctx.pending("permute"):
                yield from ctx.svm.compute(PERMUTE_US_PER_KEY * len(rng_))
                offsets = dict(my_base)
                for key in mine:
                    key = int(key)
                    b = (key >> shift) & mask
                    target = offsets[b]
                    offsets[b] = target + 1
                    yield from ctx.svm.write_i64(
                        dst_seg.addr(target * self._ITEM), key)
                ctx.done("permute")
            yield from ctx.barrier(self.BARRIER_C, key=p)
            ctx.reset("zero")
            ctx.reset("permute")
        return None

    def _result_segment(self):
        return self.src if self.passes % 2 == 0 else self.dst

    def verify(self, runtime) -> None:
        got = runtime.debug_read_array(
            self._result_segment().addr(0), np.int64, self.n)
        want = np.sort(self._keys(), kind="stable")
        if not np.array_equal(got, want):
            raise ApplicationError("radix sort output is not the "
                                   "sorted key sequence")
