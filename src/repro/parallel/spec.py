"""Run specifications: the unit of work the orchestrator schedules.

A :class:`RunSpec` is a *value*: a runner name plus JSON-serializable
parameters that fully determine one simulation (workload factory name
and scale, cluster/protocol/memory configuration, seeds, fault plan).
Being a value makes it picklable for worker processes and hashable for
the content-addressed cache -- two specs with the same canonical JSON
are the same experiment.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_ALLOWED_SCALARS = (str, int, float, bool, type(None))


def _check_canonical(value: Any, path: str) -> None:
    """Reject params the cache key could not represent stably."""
    if isinstance(value, _ALLOWED_SCALARS):
        return
    if isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(
                    f"spec param {path}: dict keys must be str, got {k!r}")
            _check_canonical(v, f"{path}.{k}")
        return
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _check_canonical(v, f"{path}[{i}]")
        return
    raise TypeError(
        f"spec param {path}: {type(value).__name__} is not "
        "JSON-canonicalizable (use str/int/float/bool/None/dict/list)")


def _normalize(value: Any) -> Any:
    """Tuples -> lists so equal specs canonicalize identically."""
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    return value


@dataclass(frozen=True)
class RunSpec:
    """One schedulable simulation.

    ``kind`` names a runner registered in :mod:`repro.parallel.runners`;
    ``params`` are its keyword arguments; ``tag`` is a display label
    only -- it never enters the cache key.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        _check_canonical(self.params, self.kind)
        object.__setattr__(self, "params", _normalize(self.params))

    def canonical_json(self) -> str:
        """Stable serialization: the identity of this experiment."""
        return json.dumps({"kind": self.kind, "params": self.params},
                          sort_keys=True, separators=(",", ":"))

    @property
    def label(self) -> str:
        return self.tag if self.tag is not None else self.canonical_json()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.params, "tag": self.tag}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunSpec":
        return cls(kind=d["kind"], params=d.get("params", {}),
                   tag=d.get("tag"))


def app_spec(app_name: str, variant: str, verify: bool = True,
             tag: Optional[str] = None, **build_args) -> RunSpec:
    """One cell of the paper's evaluation matrix: the params are the
    keyword arguments of :func:`repro.harness.experiments.build_app`,
    its defaults filled in (one experiment, one cache key) and the
    protocol overrides flat among them, plus ``verify``."""
    from repro.harness.experiments import build_app

    bound = inspect.signature(build_app).bind(app_name, variant,
                                              **build_args)
    bound.apply_defaults()
    params = dict(bound.arguments)
    params.update(params.pop("protocol_overrides"), verify=verify)
    if tag is None:
        tag = (f"{app_name}/{variant}/t{params['threads_per_node']}"
               f"/s{params['seed']}")
    return RunSpec(kind="app", params=params, tag=tag)


def model_check_spec(program_seed: int, cluster_seed: int,
                     plan_seed: int, failures: int, check: bool = False,
                     max_sim_us: float = 200_000.0,
                     tag: Optional[str] = None, **scenario) -> RunSpec:
    """One fault-injection model-check case: a whole
    :class:`~repro.verify.replay.ReplayScenario` (``scenario`` names
    any of its other fields) plus whether the invariant checker rides
    along and the simulated-time cap."""
    from repro.verify.replay import ReplayScenario

    case = ReplayScenario(program_seed, cluster_seed, plan_seed, failures,
                          **scenario)
    if tag is None:
        tag = (f"mc/{program_seed}/{cluster_seed}/"
               f"{plan_seed}x{failures}")
        if case.num_nodes != 4:
            tag += f"/n{case.num_nodes}"
        if case.during_recovery_prob != 0.0:
            tag += f"/d{case.during_recovery_prob:g}"
    return RunSpec(kind="model_check",
                   params={**case.to_dict(), "check": check,
                           "max_sim_us": max_sim_us}, tag=tag)
