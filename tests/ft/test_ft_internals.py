"""Unit-level tests of FT protocol mechanisms (paper Figs 2-6)."""

import numpy as np
import pytest

from repro.apps.base import Workload
from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.memory import Diff
from repro.protocol.ft.protocol import _UndoRecord


def ft_config(threads_per_node=1, num_nodes=4, **proto):
    return ClusterConfig(
        num_nodes=num_nodes, threads_per_node=threads_per_node,
        shared_pages=32, num_locks=32, seed=5,
        page_size=512,
        protocol=ProtocolParams(variant="ft", **proto))


class _TouchPage(Workload):
    """Minimal: each thread writes its slice of one page, barrier."""

    name = "touch"

    def setup(self, runtime):
        self.seg = runtime.alloc("page", 512, home=0)

    def kernel(self, ctx):
        width = 512 // ctx.nthreads
        yield from ctx.svm.write(self.seg.addr(ctx.tid * width),
                                 bytes([ctx.tid + 1]) * width)
        yield from ctx.barrier(self.BARRIER_A)


def test_committed_and_tentative_copies_converge():
    """After all releases complete, the two home replicas of every
    written page hold identical bytes (Fig 2's serialization)."""
    wl = _TouchPage()
    runtime = SvmRuntime(ft_config(), wl)
    runtime.run()
    page = runtime.cluster.address_space.locate(wl.seg.addr(0))[0]
    primary = runtime.homes.primary_home(page)
    secondary = runtime.homes.secondary_home(page)
    committed = runtime.agents[primary].committed.read_page(page)
    tentative = runtime.agents[secondary].tentative.read_page(page)
    assert committed == tentative
    # And they contain every writer's slice (multi-writer merge).
    width = 512 // runtime.config.total_threads
    for tid in range(runtime.config.total_threads):
        assert committed[tid * width] == tid + 1


def test_remote_writes_never_touch_working_copies():
    """Fig 3: remote modifications go to committed/tentative copies
    only, so a home's own diffs cannot re-propagate others' updates."""
    wl = _TouchPage()
    runtime = SvmRuntime(ft_config(), wl)
    runtime.run()
    page = runtime.cluster.address_space.locate(wl.seg.addr(0))[0]
    primary = runtime.homes.primary_home(page)
    width = 512 // runtime.config.total_threads
    working = runtime.agents[primary].working.read_page(page)
    # The primary home's *working* copy contains its own thread's
    # writes; other threads' slices arrived only at the committed copy
    # (unless the home refetched, which this kernel never does).
    other_tids = [t for t in range(runtime.config.total_threads)
                  if t % runtime.config.num_nodes != primary]
    assert any(working[t * width] == 0 for t in other_tids)


def test_undo_record_keeps_first_value_only():
    record = _UndoRecord(seq=3)
    assert record.pages == {}
    # Simulate _record_undo's dedup contract at the store level.
    record.pages.setdefault(7, [(0, b"old")])
    # A resend must not overwrite the original old bytes.
    if 7 in record.pages:
        pass
    else:
        record.pages[7] = [(0, b"newer")]
    assert record.pages[7] == [(0, b"old")]


def test_undo_applies_old_bytes():
    wl = _TouchPage()
    runtime = SvmRuntime(ft_config(), wl)
    agent = runtime.agents[1]
    page = 3
    agent.tentative.write_page(page, bytes([9]) * 512)
    diff = Diff(page, ((10, bytes([1, 2, 3])),))
    agent._record_undo(writer=2, seq=5, diff=diff)
    buf = agent.tentative.page_view(page)
    buf[10:13] = bytes([1, 2, 3])
    touched = agent.apply_undo(2, 5)
    assert touched == [page]
    assert agent.tentative.read_span(page, 10, 3) == bytes([9] * 3)


def test_undo_ignores_wrong_seq():
    wl = _TouchPage()
    runtime = SvmRuntime(ft_config(), wl)
    agent = runtime.agents[1]
    diff = Diff(2, ((0, b"x"),))
    agent._record_undo(writer=3, seq=4, diff=diff)
    assert agent.apply_undo(3, 5) == []
    assert agent.apply_undo(3, 4) == [2]


def test_newer_release_supersedes_undo():
    wl = _TouchPage()
    runtime = SvmRuntime(ft_config(), wl)
    agent = runtime.agents[1]
    agent._record_undo(writer=3, seq=4, diff=Diff(2, ((0, b"a"),)))
    agent._record_undo(writer=3, seq=5, diff=Diff(2, ((0, b"b"),)))
    # seq-4 records were dropped when seq 5 arrived.
    assert agent.apply_undo(3, 4) == []


def test_published_interval_lags_commit_until_point_b():
    """The node's own ts entry advances at commit, but what other nodes
    may learn (published_interval) advances only at point B."""
    wl = _TouchPage()
    runtime = SvmRuntime(ft_config(), wl)
    observed = []

    def on_commit(node_id, **info):
        agent = runtime.agents[node_id]
        observed.append(("commit", agent.interval_no,
                         agent.published_interval))

    def on_point_b(node_id, **info):
        agent = runtime.agents[node_id]
        observed.append(("pointb", agent.interval_no,
                         agent.published_interval))

    runtime.cluster.hooks.on(Hooks.RELEASE_COMMITTED, on_commit)
    runtime.cluster.hooks.on(Hooks.CHECKPOINT_B, on_point_b)
    runtime.run()
    commits = [o for o in observed if o[0] == "commit" and o[1] > 0]
    assert commits, "no non-empty commits observed"
    for _kind, interval, published in commits:
        assert published <= interval
    points = [o for o in observed if o[0] == "pointb"]
    assert any(published == interval
               for _k, interval, published in points)


def test_page_locking_stalls_faults_during_release():
    """Fig 4: a write fault on a page committed by an outstanding
    release stalls until propagation completes."""

    class Fig4(Workload):
        name = "fig4"

        def setup(self, runtime):
            self.seg = runtime.alloc("page", 512, home=1)

        def kernel(self, ctx):
            addr = self.seg.addr(ctx.tid * 64)
            if ctx.tid == 0:
                yield from ctx.svm.write(addr, b"a" * 64)
                yield from ctx.svm.acquire(2)
                ctx.state["x"] = 1
                yield from ctx.svm.release(2)   # commits + locks page
            else:
                # Keep writing in small steps: at least one write lands
                # inside thread 0's propagation window, when the page
                # is committed-and-locked, and must stall (Fig 4).
                for i in ctx.range("i", 30):
                    yield from ctx.svm.compute(8.0)
                    yield from ctx.svm.write(addr, bytes([i + 1]) * 64)
            yield from ctx.barrier(self.BARRIER_A)

    config = ClusterConfig(
        num_nodes=2, threads_per_node=2, shared_pages=32,
        num_locks=32, seed=5,
        page_size=512,
        protocol=ProtocolParams(variant="ft"))
    runtime = SvmRuntime(config, Fig4())
    result = runtime.run()
    assert result.counters.total.page_lock_stalls > 0


def test_serialized_releases_counted():
    """Section 4.4: two threads on one node releasing concurrently are
    serialized; the stall is observable."""

    class TwoReleases(Workload):
        name = "tworel"

        def setup(self, runtime):
            self.seg = runtime.alloc("pages", 4 * 512, home=1)

        def kernel(self, ctx):
            addr = self.seg.addr(ctx.tid * 512)
            yield from ctx.svm.write(addr, bytes([ctx.tid + 1]) * 128)
            yield from ctx.svm.acquire(3 + ctx.tid)
            ctx.state["x"] = 1
            yield from ctx.svm.release(3 + ctx.tid)
            yield from ctx.barrier(self.BARRIER_A)

    config = ClusterConfig(
        num_nodes=2, threads_per_node=2, shared_pages=32,
        num_locks=32, seed=5,
        page_size=512,
        protocol=ProtocolParams(variant="ft"))
    runtime = SvmRuntime(config, TwoReleases())
    result = runtime.run()
    assert result.counters.total.release_serialization_stalls > 0


def test_each_release_encodes_each_diff_once(monkeypatch):
    """The pending record shipped to the backup and its local mirror
    hold the same blobs: one serialisation per page per release."""
    encoded = []
    real_encode = Diff.encode

    def counting_encode(diff):
        encoded.append(diff.page_id)
        return real_encode(diff)

    monkeypatch.setattr(Diff, "encode", counting_encode)
    runtime = SvmRuntime(ft_config(), _TouchPage())
    committed = []
    runtime.cluster.hooks.on(
        Hooks.RELEASE_COMMITTED,
        lambda node_id, pages, **info: committed.extend(pages))
    runtime.run()
    assert committed
    assert sorted(encoded) == sorted(committed)
    for agent in runtime.agents:
        backup = runtime.agents[runtime.homes.backup_node(agent.node_id)]
        shipped = backup.ckpt_store.pending_release(agent.node_id)
        mirrored = agent.ckpt_mirror.pending_release(agent.node_id)
        assert shipped.diffs == mirrored.diffs
        assert shipped.diffs is not mirrored.diffs
