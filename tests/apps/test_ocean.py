"""Tests for the Ocean stencil extension workload."""

import numpy as np
import pytest

from repro.apps import Ocean
from repro.cluster import Hooks
from repro.config import ClusterConfig, ProtocolParams
from repro.harness import SvmRuntime
from repro.harness.faultplan import FaultPlan


def config_for(variant, threads_per_node=1):
    return ClusterConfig(
        num_nodes=4, threads_per_node=threads_per_node,
        shared_pages=64, num_locks=16, seed=3,
        page_size=512,
        protocol=ProtocolParams(variant=variant))


def test_row_partition_covers_interior():
    ocean = Ocean(n=32)
    covered = []
    for tid in range(4):
        covered.extend(ocean._rows(tid, 4))
    assert covered == list(range(1, 31))


def test_relax_row_only_touches_one_colour():
    row = np.arange(8, dtype=float)
    above = np.ones(8)
    below = np.zeros(8)
    out = Ocean._relax_row(above, row, below, colour=0, row_index=2,
                           omega=1.0)
    changed = np.nonzero(out != row)[0]
    # All changed points share one parity (the half-sweep's colour),
    # interior only.
    assert len(changed) > 0
    assert len({(2 + j) % 2 for j in changed}) == 1
    assert 0 not in changed and 7 not in changed  # boundary fixed


@pytest.mark.parametrize("variant", ["base", "ft"])
def test_ocean_matches_serial(variant):
    runtime = SvmRuntime(config_for(variant), Ocean(n=24, sweeps=3))
    result = runtime.run()  # bit-exact verify inside
    assert result.elapsed_us > 0


def test_ocean_smp():
    runtime = SvmRuntime(config_for("ft", threads_per_node=2),
                         Ocean(n=24, sweeps=2))
    runtime.run()


def test_ocean_nearly_all_home_diffs():
    """The stencil's writes are all band-local: home-page diff share
    should beat every app in the paper's suite except FFT/LU."""
    runtime = SvmRuntime(config_for("ft"), Ocean(n=32, sweeps=3))
    result = runtime.run()
    assert result.counters.home_diff_fraction > 0.8


@pytest.mark.parametrize("occurrence", [2, 4])
def test_ocean_survives_failure(occurrence):
    runtime = SvmRuntime(config_for("ft"), Ocean(n=24, sweeps=3))
    records = FaultPlan.single(2, Hooks.BARRIER_ENTER, occurrence,
                               0.5).apply(runtime.cluster)
    result = runtime.run()
    assert records[0].fired_at is not None
    assert result.recoveries == 1
