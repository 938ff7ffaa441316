"""Spec builders describe a run once: ``model_check_spec`` carries a
whole ``ReplayScenario``, ``app_spec`` exactly ``build_app``'s keyword
arguments."""

import inspect
from dataclasses import fields

import pytest

from repro.harness.experiments import build_app
from repro.parallel import app_spec, model_check_spec
from repro.verify.replay import CASE_CAP_US, ReplayScenario

SEEDS = ("program_seed", "cluster_seed", "plan_seed", "failures")


def _other_value(default):
    """A value of the field's type that is not its default."""
    if isinstance(default, str):
        return {"ft": "base", "polling": "queueing"}[default]
    return default + 2


@pytest.mark.parametrize(
    "name", [f.name for f in fields(ReplayScenario) if f.name not in SEEDS])
def test_model_check_spec_expresses_every_scenario_field(name):
    default = getattr(ReplayScenario(1, 2, 3, 1), name)
    value = _other_value(default)
    spec = model_check_spec(1, 2, 3, 1, **{name: value})
    scenario = ReplayScenario.from_dict(spec.params)
    assert getattr(scenario, name) == value != default
    assert scenario == ReplayScenario(1, 2, 3, 1, **{name: value})


def test_model_check_spec_carries_the_seeds_and_run_options():
    spec = model_check_spec(145, 1, 533, 2, max_sim_us=5e4)
    assert ReplayScenario.from_dict(spec.params) == ReplayScenario(
        145, 1, 533, 2)
    assert spec.params["max_sim_us"] == 5e4
    assert model_check_spec(145, 1, 533, 2).params["max_sim_us"] \
        == CASE_CAP_US
    assert spec.label == "mc/145/1/533x2"


def test_app_spec_params_are_build_app_keywords():
    params = dict(app_spec("LU", "ft", scale="test",
                           batch_diffs=True).params)
    assert params.pop("verify") is True
    bound = inspect.signature(build_app).bind(**params)
    assert bound.arguments["protocol_overrides"] == {"batch_diffs": True}
    runtime = build_app(**params)
    assert runtime.config.protocol.batch_diffs
    assert runtime.workload.name == "LU"


def test_app_spec_fills_defaults_so_one_experiment_has_one_key():
    assert (app_spec("FFT", "ft").canonical_json()
            == app_spec("FFT", "ft", threads_per_node=1, scale="bench",
                        num_nodes=8, seed=2003,
                        lock_algorithm="polling").canonical_json())
