"""Batched fast path == per-access reference path.

The synchronous fast path in ``SvmNodeAgent.try_read_fast`` /
``try_write_fast`` must be *bit-identical* to the per-access generator
path it shortcuts: mapped accesses complete with zero scheduler yields
and zero simulated time on both paths, and a faulting span falls back
to the untouched slow path with its original fault sequence. These
tests pin that equivalence the same way ``compute_diff_reference``
pins the vectorized diff engine:

* same final shared-memory bytes, simulated elapsed time, page-fault /
  diff counters across the figure workloads with the fast path on vs
  forced off;
* identical flight-recorder digest for the flagship fault-injection
  scenario (two failures, two recoveries) either way.
"""

import numpy as np
import pytest

from repro.harness.experiments import evaluation_config, workload_factories
from repro.harness.runner import SvmRuntime
from repro.obs import FlightRecorder
from repro.protocol.agent import SvmNodeAgent
from repro.verify.replay import ReplayScenario, build_runtime

#: The four figure workloads whose kernels use batched span accesses.
APPS = ("FFT", "WaterNsq", "WaterSpFL", "RadixLocal")

#: Counters that must not move by a single event between the two paths.
PINNED_COUNTERS = ("page_faults", "read_faults", "write_faults",
                   "remote_page_fetches", "twins_created", "pages_diffed",
                   "diff_messages", "diff_bytes_sent", "invalidations",
                   "write_notices", "checkpoints")


def _run_oracle_pair(run_once):
    """Run ``run_once()`` with the fast path on, then forced off."""
    saved = SvmNodeAgent.fast_path_enabled
    try:
        SvmNodeAgent.fast_path_enabled = True
        fast = run_once()
        SvmNodeAgent.fast_path_enabled = False
        slow = run_once()
    finally:
        SvmNodeAgent.fast_path_enabled = saved
    return fast, slow


def _run_app(app_name):
    factory = workload_factories("test")[app_name]
    config = evaluation_config("ft", num_nodes=4)
    runtime = SvmRuntime(config, factory())
    result = runtime.run(verify=True)
    space = runtime.cluster.address_space
    memory = runtime.debug_read(0, space.pages_allocated * space.page_size)
    counters = {name: getattr(result.counters.total, name)
                for name in PINNED_COUNTERS}
    return dict(elapsed_us=result.elapsed_us, memory=memory,
                counters=counters)


@pytest.mark.parametrize("app", APPS)
def test_fast_path_bit_identical_on_figure_workloads(app):
    fast, slow = _run_oracle_pair(lambda: _run_app(app))
    assert fast["counters"] == slow["counters"]
    assert fast["elapsed_us"] == slow["elapsed_us"]
    assert fast["memory"] == slow["memory"]


def test_fast_path_preserves_flagship_trace_digest():
    scenario = dict(program_seed=145, cluster_seed=1,
                    plan_seed=533, failures=2)

    def run_once():
        runtime = build_runtime(ReplayScenario(**scenario))
        recorder = FlightRecorder(runtime)
        runtime.run()
        recorder.detach()
        return recorder.digest()

    fast, slow = _run_oracle_pair(run_once)
    assert fast == slow


@pytest.mark.parametrize("fast", [True, False])
def test_span_accessors_round_trip(fast):
    """read_span/write_span see the bytes written, both on the mapped
    fast path and with the per-access reference path forced."""
    from repro.apps.base import Workload
    from repro.config import ClusterConfig, MemoryParams, ProtocolParams

    payload = np.arange(160, dtype=np.int64)  # 1280 B: multi-page span
    probe = {}

    class Probe(Workload):
        name = "probe"

        def setup(self, runtime):
            self.seg = runtime.alloc("probe", 8 * 512, home="block")

        def kernel(self, ctx):
            seg = self.seg
            if ctx.tid == 0:
                yield from ctx.svm.write_span(seg.addr(0),
                                              payload.tobytes())
                probe["raw"] = yield from ctx.svm.read_span(
                    seg.addr(0), payload.nbytes)
                yield from ctx.svm.write_array(seg.addr(0),
                                               payload[::-1].copy())
                probe["back"] = yield from ctx.svm.read_array(
                    seg.addr(0), np.int64, len(payload))
            yield from ctx.barrier(self.BARRIER_A)
            if ctx.tid == 1:
                # Post-invalidation read on the other node exercises
                # the faulting fallback of the span path.
                probe["remote"] = yield from ctx.svm.read_array(
                    seg.addr(0), np.int64, len(payload))

    config = ClusterConfig(
        num_nodes=2, threads_per_node=1, shared_pages=32,
        num_locks=16, num_barriers=8, seed=5,
        memory=MemoryParams(page_size=512),
        protocol=ProtocolParams(variant="ft"))

    saved = SvmNodeAgent.fast_path_enabled
    try:
        SvmNodeAgent.fast_path_enabled = fast
        SvmRuntime(config, Probe()).run()
    finally:
        SvmNodeAgent.fast_path_enabled = saved
    assert probe["raw"] == payload.tobytes()
    assert np.array_equal(probe["back"], payload[::-1])
    assert np.array_equal(probe["remote"], payload[::-1])
