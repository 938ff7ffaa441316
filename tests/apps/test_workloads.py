"""Every SPLASH-2-style workload must compute the right answer through
both protocols, at uniprocessor and SMP configurations.

Each workload's ``verify`` compares the final shared memory against an
independent serial computation (numpy FFT, L*U residual, serial MD,
sorted keys, serial render), so passing these tests means the whole
coherence stack moved real data correctly.
"""

import pytest

from repro.apps import (
    FFT,
    LU,
    RadixSort,
    SyntheticWorkload,
    Volrend,
    WaterNsquared,
    WaterSpatial,
)
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime


def config_for(workload, variant, num_nodes=4, threads_per_node=1,
               page_size=1024, seed=3):
    return ClusterConfig(
        num_nodes=num_nodes,
        threads_per_node=threads_per_node,
        shared_pages=1024,
        num_locks=256,
        seed=seed,
        page_size=page_size,
        protocol=ProtocolParams(variant=variant),
    )


def small_workloads():
    return [
        FFT(points=1024),
        LU(n=64, block=16),
        WaterNsquared(molecules=24, steps=1),
        WaterSpatial(molecules=24, steps=1),
        RadixSort(keys=512, radix_bits=4, key_bits=8),
        Volrend(image_size=8, tile=4, volume_size=8),
        SyntheticWorkload(iterations=6),
    ]


@pytest.mark.parametrize("workload", small_workloads(),
                         ids=lambda w: w.name)
@pytest.mark.parametrize("variant", ["base", "ft"])
def test_workload_correct(workload, variant):
    import copy
    wl = copy.deepcopy(workload)
    runtime = SvmRuntime(config_for(wl, variant), wl)
    result = runtime.run()  # verify() runs inside
    assert result.elapsed_us > 0
    assert result.breakdown.total > 0


@pytest.mark.parametrize("workload", [FFT(points=1024),
                                      WaterNsquared(molecules=24, steps=1),
                                      RadixSort(keys=512, radix_bits=4,
                                                key_bits=8)],
                         ids=lambda w: w.name)
def test_workload_smp_config(workload):
    import copy
    wl = copy.deepcopy(workload)
    runtime = SvmRuntime(
        config_for(wl, "ft", num_nodes=2, threads_per_node=2), wl)
    runtime.run()


def test_ft_slower_than_base_across_suite():
    """The paper's headline claim, app by app: the extended protocol
    costs more in the failure-free case."""
    overheads = {}
    for make in (lambda: FFT(points=1024),
                 lambda: RadixSort(keys=512, radix_bits=4, key_bits=8)):
        base = SvmRuntime(config_for(None, "base"), make()).run()
        ft = SvmRuntime(config_for(None, "ft"), make()).run()
        overheads[type(make()).__name__] = ft.elapsed_us / base.elapsed_us
    for name, ratio in overheads.items():
        assert ratio > 1.0, f"{name}: FT not slower ({ratio:.2f}x)"


def test_fft_base_sends_no_diffs():
    """Owner-computes placement: the base protocol never diffs."""
    result = SvmRuntime(config_for(None, "base"), FFT(points=1024)).run()
    assert result.counters.total.diff_messages == 0


def test_fft_ft_diffs_all_home_pages():
    result = SvmRuntime(config_for(None, "ft"), FFT(points=1024)).run()
    totals = result.counters.total
    assert totals.pages_diffed > 0
    assert totals.home_pages_diffed == totals.pages_diffed


def test_water_nsq_checkpoints_most():
    """Lock-heavy Water-Nsquared takes far more checkpoints than
    barrier-only FFT (the paper's 10 277 vs a few hundred)."""
    water = SvmRuntime(config_for(None, "ft"),
                       WaterNsquared(molecules=24, steps=1)).run()
    fft = SvmRuntime(config_for(None, "ft"), FFT(points=1024)).run()
    assert water.counters.total.checkpoints > \
        3 * fft.counters.total.checkpoints


def test_radix_low_home_diff_fraction():
    """Radix scatters writes to other threads' pages: its home-diff
    fraction is the lowest of the suite (the paper's ~12%). The
    characterization needs pages small enough that per-thread regions
    span multiple pages (the paper's 4M keys over 4 KB pages)."""
    radix = SvmRuntime(config_for(None, "ft", page_size=256),
                       RadixSort(keys=1024, radix_bits=4,
                                 key_bits=8)).run()
    spatial = SvmRuntime(config_for(None, "ft", page_size=256),
                         WaterSpatial(molecules=96, steps=1)).run()
    assert radix.counters.home_diff_fraction < \
        spatial.counters.home_diff_fraction


def test_spatial_mostly_home_diffs():
    """Water-SpatialFL's interior updates are owner-local: most diffed
    pages are home pages (the paper's >99%)."""
    result = SvmRuntime(config_for(None, "ft", page_size=256),
                        WaterSpatial(molecules=96, steps=1)).run()
    assert result.counters.home_diff_fraction > 0.5
