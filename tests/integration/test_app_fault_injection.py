"""End-to-end fault injection on every SPLASH-2-style application.

Each application runs at test scale under the extended protocol with a
node killed mid-execution; the workload's own ``verify`` (against an
independent serial computation) is the oracle. This covers
application-specific recovery interactions the synthetic workloads
cannot: barrier-phase replay (FFT/LU), per-molecule lock accumulation
(Water), histogram RMW + permutation (Radix), and dynamic task
stealing (Volrend).
"""

import pytest

from repro.apps import (
    FFT,
    LU,
    RadixSort,
    Volrend,
    WaterNsquared,
    WaterSpatial,
)
from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.harness.faultplan import FaultPlan


def ft_config(seed=3):
    return ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=1024,
        num_locks=256, seed=seed,
        page_size=1024,
        protocol=ProtocolParams(variant="ft", lock_algorithm="polling"))


CASES = [
    # (workload factory, hook, occurrence, delay)
    (lambda: FFT(points=1024), Hooks.BARRIER_ENTER, 3, 0.5),
    (lambda: FFT(points=1024), Hooks.RELEASE_COMMITTED, 2, 3.0),
    (lambda: LU(n=64, block=16), Hooks.BARRIER_ENTER, 5, 1.0),
    (lambda: LU(n=64, block=16), Hooks.DIFF_PHASE1_DONE, 3, 0.2),
    (lambda: WaterNsquared(molecules=24, steps=1),
     Hooks.LOCK_ACQUIRED, 4, 0.3),
    (lambda: WaterNsquared(molecules=24, steps=1),
     Hooks.CHECKPOINT_A, 3, 0.5),
    (lambda: WaterSpatial(molecules=24, steps=1),
     Hooks.RELEASE_COMMITTED, 2, 2.0),
    (lambda: RadixSort(keys=512, radix_bits=4, key_bits=8),
     Hooks.LOCK_RELEASED, 5, 0.4),
    (lambda: RadixSort(keys=512, radix_bits=4, key_bits=8),
     Hooks.DIFF_PHASE2_START, 4, 0.8),
    (lambda: Volrend(image_size=8, tile=4, volume_size=8),
     Hooks.LOCK_ACQUIRED, 2, 0.3),
]


@pytest.mark.parametrize(
    "factory,hook,occurrence,delay", CASES,
    ids=[f"{c[0]().name}-{c[1]}#{c[2]}" for c in CASES])
def test_app_survives_node_failure(factory, hook, occurrence, delay):
    workload = factory()
    runtime = SvmRuntime(ft_config(), workload)
    [record] = FaultPlan.single(2, hook, occurrence,
                                delay).apply(runtime.cluster)
    result = runtime.run()  # workload.verify() is the oracle
    assert record.fired_at is not None, \
        "injection never fired -- choose an earlier occurrence"
    assert result.recoveries == 1
    assert runtime.threads[2].resumptions == 1


def test_volrend_no_tile_lost_or_duplicated_across_failure():
    """Dynamic task stealing under failure: the task counter's RMW
    hand-off plus tile-rendering replay must cover every tile exactly
    once (the image verify catches missing tiles; this additionally
    pins the counter's final value)."""
    import numpy as np
    workload = Volrend(image_size=8, tile=4, volume_size=8)
    runtime = SvmRuntime(ft_config(), workload)
    FaultPlan.single(1, Hooks.LOCK_RELEASED, occurrence=2,
                     delay=0.5).apply(runtime.cluster)
    runtime.run()
    counter = runtime.debug_read_array(
        workload.counter.addr(0), np.int64, 1)[0]
    assert counter == workload.ntiles


def test_batched_diffs_with_failure():
    """Section 6's batching optimization composed with recovery: the
    batch apply path must feed the undo log exactly like per-page
    messages."""
    from repro.config import ProtocolParams
    config = ClusterConfig(
        num_nodes=4, threads_per_node=1, shared_pages=1024,
        num_locks=256, seed=3,
        page_size=1024,
        protocol=ProtocolParams(variant="ft", batch_diffs=True))
    workload = WaterNsquared(molecules=24, steps=1)
    runtime = SvmRuntime(config, workload)
    [record] = FaultPlan.single(2, Hooks.RELEASE_COMMITTED, occurrence=3,
                                delay=2.0).apply(runtime.cluster)
    result = runtime.run()
    assert record.fired_at is not None
    assert result.recoveries == 1
