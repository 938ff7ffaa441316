"""Tests for the protocol tracer, including happened-before invariants
of the two-phase protocol captured from real runs."""

import pytest

from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.metrics import ProtocolTrace
from tests.protocol.test_base_integration import MigratoryData


def ft_runtime(workload=None):
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=64,
        num_locks=64, seed=3,
        page_size=512,
        protocol=ProtocolParams(variant="ft"))
    return SvmRuntime(config, workload or MigratoryData(rounds=6))


def test_trace_records_protocol_events():
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster)
    runtime.run()
    assert len(trace) > 0
    assert trace.select(Hooks.RELEASE_COMMITTED)
    assert trace.select(Hooks.CHECKPOINT_B)


def test_point_b_precedes_lock_release():
    """Two-phase invariant: the lock is handed over only after the
    timestamp save (point B) -- the extended protocol's atomicity
    hinge (paper Fig 2)."""
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster)
    runtime.run()
    trace.assert_ordering(Hooks.DIFF_PHASE1_DONE, Hooks.LOCK_RELEASED)


def test_phase2_follows_point_b():
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster)
    runtime.run()
    trace.assert_ordering(Hooks.DIFF_PHASE1_DONE, Hooks.DIFF_PHASE2_START)
    trace.assert_ordering(Hooks.DIFF_PHASE2_START, Hooks.DIFF_PHASE2_DONE)


def test_commit_precedes_phase1():
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster)
    runtime.run()
    trace.assert_ordering(Hooks.RELEASE_COMMITTED, Hooks.DIFF_PHASE1_DONE)


def test_select_by_node():
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster)
    runtime.run()
    node1 = trace.select(Hooks.RELEASE_COMMITTED, node=1)
    assert node1
    assert all(ev.node == 1 for ev in node1)


def test_between_window():
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster)
    runtime.run()
    mid = runtime.engine.now / 2
    early = trace.between(0, mid)
    late = trace.between(mid, runtime.engine.now)
    assert len(early) + len(late) >= len(trace.events()) - 2


def test_capacity_bound_drops_oldest():
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster, capacity=10)
    runtime.run()
    assert len(trace) == 10
    assert trace.dropped > 0


def test_assert_ordering_detects_violation():
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster)
    runtime.run()
    with pytest.raises(AssertionError):
        # Deliberately inverted pair must fail.
        trace.assert_ordering(Hooks.RELEASE_DONE, Hooks.RELEASE_COMMITTED)


def test_dump_is_readable():
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster)
    runtime.run()
    text = trace.dump(limit=5)
    assert len(text.splitlines()) <= 6
    assert "node=" in text


def test_export_header_carries_drop_count(tmp_path):
    from repro.metrics import load_jsonl
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster, capacity=10)
    runtime.run()
    assert trace.dropped > 0
    path = tmp_path / "trace.jsonl"
    written = trace.export_jsonl(path, header={"seed": 3})
    header, events = load_jsonl(path)
    assert written == len(events) == 10
    # A truncated log must say so: replay and ordering checks key off
    # this field to refuse counting claims over lost history.
    assert header["dropped_events"] == trace.dropped
    assert header["seed"] == 3


def test_ordering_assertions_refuse_truncated_log():
    runtime = ft_runtime()
    trace = ProtocolTrace(runtime.cluster, capacity=10)
    runtime.run()
    with pytest.raises(AssertionError, match="truncated"):
        trace.assert_ordering(Hooks.CHECKPOINT_B, Hooks.LOCK_RELEASED)
