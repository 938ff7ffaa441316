"""``RunSummary`` restores the real result classes: what crosses the
process boundary (or sits in the cache) as JSON reads back as the same
``Breakdown`` / ``RunCounters`` / ``MetricsRegistry`` a ``RunResult``
holds."""

import json
from dataclasses import asdict

import pytest

from repro.harness.experiments import run_app
from repro.metrics import Breakdown, RunCounters
from repro.parallel import RunSummary


@pytest.mark.parametrize("variant", ["base", "ft"])
def test_summary_roundtrip_equals_the_live_result(variant):
    result = run_app("WaterNsq", variant, scale="test")
    wire = json.loads(json.dumps(
        RunSummary.from_run_result(result, data_checksum="c").to_dict()))
    summary = RunSummary.from_dict(wire)

    assert type(summary.breakdown) is Breakdown
    assert type(summary.counters) is RunCounters
    assert summary.elapsed_us == result.elapsed_us
    assert summary.recoveries == result.recoveries
    assert summary.data_checksum == "c"
    assert (summary.breakdown.four_component()
            == result.breakdown.four_component())
    assert (summary.breakdown.six_component()
            == result.breakdown.six_component())
    assert asdict(summary.counters.total) == asdict(result.counters.total)
    assert (summary.counters.home_diff_fraction
            == result.counters.home_diff_fraction)
    assert (summary.counters.mean_checkpoint_bytes
            == result.counters.mean_checkpoint_bytes)
    assert summary.latency.to_dict() == result.latency.to_dict()
    # The ratios are derived on the reading side, never stored.
    assert not {"four_component", "six_component", "home_diff_fraction",
                "mean_checkpoint_bytes"} & set(wire)
