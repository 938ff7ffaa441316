"""Tests for the page-sharing profiler, on synthetic patterns and on
the real applications (whose patterns the paper's analysis names)."""

import pytest

from repro.apps import RadixSort, Volrend
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.metrics import SharingProfiler
from repro.metrics.sharing import PageProfile
from tests.protocol.test_base_integration import (
    FalseSharingWorkload,
    MigratoryData,
    NeighborExchange,
)


def profiled_run(workload, variant="base"):
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=64,
        num_locks=64, seed=3,
        page_size=512,
        protocol=ProtocolParams(variant=variant))
    runtime = SvmRuntime(config, workload)
    profiler = SharingProfiler(runtime)
    runtime.run()
    return profiler


# -- classification unit behaviour ----------------------------------------

def test_untouched_classification():
    assert PageProfile().classify() == "untouched"


def test_private_classification():
    profile = PageProfile(readers={2}, writers={2})
    assert profile.classify() == "private"


def test_read_shared_classification():
    profile = PageProfile(readers={0, 1, 3}, writers={1})
    assert profile.classify() == "read_shared"


def test_migratory_vs_false_shared():
    serialized = PageProfile(readers={0, 1}, writers={0, 1})
    assert serialized.classify() == "migratory"
    concurrent = PageProfile(readers={0, 1}, writers={0, 1},
                             concurrent_writers=True)
    assert concurrent.classify() == "false_shared"


# -- real workloads ------------------------------------------------------------

def test_migratory_workload_detected():
    wl = MigratoryData(rounds=8)
    profiler = profiled_run(wl)
    page = 0  # the single cell page (first allocated segment)
    classes = profiler.classify_all()
    cell_page = profiled = None
    # The cell segment is the only one: its page must be migratory.
    assert "migratory" in classes.values()


def test_false_sharing_workload_detected():
    profiler = profiled_run(FalseSharingWorkload())
    assert "false_shared" in profiler.classify_all().values()


def test_neighbor_exchange_is_read_shared():
    profiler = profiled_run(NeighborExchange(ints_per_thread=64))
    summary = profiler.summary()
    # Blocks written by one thread, read by its neighbour.
    assert summary.get("read_shared", 0) > 0
    assert summary.get("false_shared", 0) == 0


def test_volrend_volume_read_shared():
    wl = Volrend(image_size=8, tile=4, volume_size=8)
    profiler = profiled_run(wl)
    segments = profiler.runtime.cluster.address_space.segments()
    classes = profiler.classify_all()

    def kinds(name):
        seg = segments[name]
        return [classes.get(seg.page(i)) for i in range(seg.num_pages)]

    # The volume is written once (by thread 0) and read by everyone.
    assert "read_shared" in kinds("vol_data")
    # The task counter bounces under the lock.
    assert kinds("vol_tasks").count("migratory") == 1

