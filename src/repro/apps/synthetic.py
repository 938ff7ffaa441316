"""Parameterized synthetic workload for microbenchmarks and ablations.

Lets a benchmark dial the exact sharing characteristics the paper's
discussion attributes behaviour to: pages written per interval, the
fraction landing on the writer's own home pages, lock count and
contention, release frequency, and compute grain.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError


class SyntheticWorkload(Workload):
    """Configurable lock/barrier workload over real shared pages."""

    name = "synthetic"

    def __init__(self,
                 iterations: int = 10,
                 pages_per_interval: int = 2,
                 home_fraction: float = 0.5,
                 bytes_per_page: int = 64,
                 num_locks: int = 4,
                 compute_us: float = 20.0,
                 sync: str = "locks",
                 seed: int = 23) -> None:
        if sync not in ("locks", "barriers"):
            raise ApplicationError(f"unknown sync mode {sync!r}")
        self.iterations = iterations
        self.pages_per_interval = pages_per_interval
        self.home_fraction = home_fraction
        self.bytes_per_page = bytes_per_page
        self.num_locks = num_locks
        self.compute_us = compute_us
        self.sync = sync
        self.seed = seed
        self.own = None
        self.remote = None

    def setup(self, runtime) -> None:
        total = runtime.config.total_threads
        nodes = runtime.config.num_nodes
        page = runtime.config.page_size
        span = self.pages_per_interval * page
        # One own-homed region and one remote-homed region per thread.
        self.own = runtime.alloc("syn_own", total * span,
                                 home=lambda i: (i // self.pages_per_interval
                                                 ) % nodes)
        self.remote = runtime.alloc(
            "syn_remote", total * span,
            home=lambda i: ((i // self.pages_per_interval) + 1) % nodes)

    def kernel(self, ctx: AppContext):
        page = ctx.svm.agent.page_size
        span = self.pages_per_interval * page
        own_base = self.own.addr(ctx.tid * span)
        remote_base = self.remote.addr(ctx.tid * span)
        n_home = int(round(self.pages_per_interval * self.home_fraction))
        rng = np.random.default_rng(self.seed + ctx.tid)
        payloads = rng.integers(1, 255, size=self.iterations)

        for i in ctx.range("i", self.iterations):
            yield from ctx.svm.compute(self.compute_us)
            fill = bytes([int(payloads[i])]) * self.bytes_per_page
            for p in range(self.pages_per_interval):
                base = own_base if p < n_home else remote_base
                yield from ctx.svm.write(base + p * page, fill)
            if self.sync == "locks":
                lock = i % self.num_locks
                yield from ctx.svm.acquire(lock)
                ctx.state["i"] = i + 1
                yield from ctx.svm.release(lock)
            else:
                yield from ctx.barrier(self.BARRIER_A, key=i)
        yield from ctx.barrier(self.BARRIER_B)
        return None

    def verify(self, runtime) -> None:
        total = runtime.config.total_threads
        page = runtime.config.page_size
        span = self.pages_per_interval * page
        n_home = int(round(self.pages_per_interval * self.home_fraction))
        for tid in range(total):
            rng = np.random.default_rng(self.seed + tid)
            payloads = rng.integers(1, 255, size=self.iterations)
            expected = bytes([int(payloads[-1])]) * self.bytes_per_page
            for p in range(self.pages_per_interval):
                seg = self.own if p < n_home else self.remote
                got = runtime.debug_read(
                    seg.addr(tid * span + p * page), self.bytes_per_page)
                if got != expected:
                    raise ApplicationError(
                        f"thread {tid} page {p}: final payload wrong")
