"""An SLO spec holds only targets the evaluation can check."""

import json
import pathlib

import pytest

from repro.errors import ConfigError
from repro.metrics import MetricsRegistry
from repro.metrics.latency import OP_CLASSES
from repro.obs import SloSpec, evaluate_slo

REPO = pathlib.Path(__file__).resolve().parents[2]

#: A misspelt class and a quantile the evaluation does not compute.
TWO_MISTAKES = {"page_faults": {"p99": 1}, "page_fault": {"p95": 1}}


def test_a_spec_with_a_misspelt_class_and_an_unknown_quantile_is_rejected(
        tmp_path):
    # Evaluated as given, this spec would pass against a book whose
    # page_fault p99 is far above 1 us: the typo matches no class and
    # the p95 target is never checked.
    with pytest.raises(ConfigError, match="page_faults"):
        SloSpec("typo", TWO_MISTAKES)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "typo",
                                "latency_targets_us": TWO_MISTAKES}))
    with pytest.raises(ConfigError, match="page_faults"):
        SloSpec.load(path)


@pytest.mark.parametrize("targets, key", [
    ({"page_faults": {"p99": 1}}, "page_faults"),
    ({"page_fault": {"p95": 1}}, "p95"),
    ({"page_fault": {"p99": 0}}, "page_fault.p99"),
    ({"barrier": {"p50": -5}}, "barrier.p50"),
    ({"barrier": {"p50": "fast"}}, "barrier.p50"),
])
def test_each_mistake_is_named(targets, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        SloSpec.from_dict({"name": "bad", "latency_targets_us": targets})


def test_the_committed_specs_still_load_and_evaluate():
    committed = SloSpec.load(REPO / "results" / "slo_default.json")
    assert set(committed.latency_targets_us) == set(OP_CLASSES)
    registry = MetricsRegistry()
    registry.histogram("page_fault").record(8191.0)
    report = evaluate_slo(committed, registry)
    (check,) = [c for c in report["checks"]
                if c["op_class"] == "page_fault" and c["quantile"] == "p99"]
    assert not check["ok"] and not report["ok"]
