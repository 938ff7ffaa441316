"""Pure-vs-accelerated bit-identity: the compiled core must be invisible.

:mod:`repro.sim._core` selects between the pure-Python reference
kernel and the optional compiled :mod:`repro.sim._ccore`.  The
contract is *bit-identity of simulated results*: same golden trace
digest, same same-seed figure inputs, same fault-sweep outcomes under
the recovery invariant checker.  Each comparison here runs the same
scenario in two subprocesses -- one with ``REPRO_PURE=1`` (reference
oracle), one without (compiled core when built) -- and demands
byte-identical fingerprints.

When the extension is not built the cross-build tests skip: the
selector smoke tests still run, proving the pure fallback is always
importable and is what ``REPRO_PURE=1`` selects.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

CCORE_BUILT = importlib.util.find_spec("repro.sim._ccore") is not None
needs_ccore = pytest.mark.skipif(
    not CCORE_BUILT,
    reason="compiled core not built (python setup.py build_ext --inplace)")

# Must match tests/obs/test_recorder.py -- the committed golden digest
# for the flagship two-failure scenario.
GOLDEN_DIGEST = (
    "df466545735a9889a1c90db7d65be41511c462f2a724182e26c67bf301757901")


def _run_snippet(snippet: str, pure: bool) -> dict:
    """Run ``snippet`` in a fresh interpreter and parse its JSON stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_PURE"] = "1" if pure else ""
    proc = subprocess.run([sys.executable, "-c", snippet],
                          capture_output=True, text=True, env=env,
                          cwd=str(REPO), timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# -- selector smoke ----------------------------------------------------------

SELECTOR_SNIPPET = """
import json
import repro.sim as sim
from repro.sim import _core
print(json.dumps({
    "accelerated": sim.ACCELERATED,
    "engine_module": sim.Engine.__module__,
    "event_module": sim.Event.__module__,
    "process_module": sim.Process.__module__,
}))
"""


def test_repro_pure_forces_reference_build():
    info = _run_snippet(SELECTOR_SNIPPET, pure=True)
    assert info["accelerated"] is False
    assert info["engine_module"] == "repro.sim.engine"
    assert info["process_module"] == "repro.sim.process"


@needs_ccore
def test_default_build_selects_compiled_core():
    info = _run_snippet(SELECTOR_SNIPPET, pure=False)
    assert info["accelerated"] is True
    for key in ("engine_module", "event_module", "process_module"):
        assert info[key] == "repro.sim._ccore", info


def test_all_kernel_classes_come_from_one_build():
    # Mixing pure Events with compiled Processes (or vice versa) would
    # silently break the settled-event fast path; everything must come
    # from the same selected module.
    for pure in (True, False):
        info = _run_snippet(SELECTOR_SNIPPET, pure=pure)
        modules = {info["engine_module"], info["event_module"],
                   info["process_module"]}
        if info["accelerated"]:
            assert modules == {"repro.sim._ccore"}, info
        else:
            assert modules == {"repro.sim.engine", "repro.sim.process"}, info


# -- timed yields ------------------------------------------------------------

TIMED_WAIT_SNIPPET = """
import json
import repro.sim as sim
from tests.sim.test_process import timed_wait_record
print(json.dumps({"accelerated": sim.ACCELERATED,
                  "record": timed_wait_record()}))
"""


@needs_ccore
def test_timed_yields_bit_identical():
    # Float, int and zero waits wake at the same times in the same
    # order, and a negative or unsupported yield fails the same way.
    pure = _run_snippet(TIMED_WAIT_SNIPPET, pure=True)
    accel = _run_snippet(TIMED_WAIT_SNIPPET, pure=False)
    assert pure["accelerated"] is False
    assert accel["accelerated"] is True
    assert accel["record"] == pure["record"]


# -- golden trace digest -----------------------------------------------------

DIGEST_SNIPPET = """
import json
import repro.sim as sim
from repro.obs import FlightRecorder
from repro.verify.replay import ReplayScenario, build_runtime
runtime = build_runtime(ReplayScenario(program_seed=145, cluster_seed=1,
                                       plan_seed=533, failures=2))
recorder = FlightRecorder(runtime)
runtime.run()
recorder.detach()
print(json.dumps({"accelerated": sim.ACCELERATED,
                  "digest": recorder.digest()}))
"""


@needs_ccore
def test_golden_trace_digest_bit_identical():
    pure = _run_snippet(DIGEST_SNIPPET, pure=True)
    accel = _run_snippet(DIGEST_SNIPPET, pure=False)
    assert pure["accelerated"] is False
    assert accel["accelerated"] is True
    assert pure["digest"] == GOLDEN_DIGEST
    assert accel["digest"] == GOLDEN_DIGEST


# -- same-seed figure inputs -------------------------------------------------

FIGURE_SNIPPET = """
import json
import repro.sim as sim
from repro.harness.experiments import run_app
fingerprints = {}
for app in ("FFT", "LU"):
    result = run_app(app, "ft", scale="test")
    total = result.counters.total
    fingerprints[app] = {
        "elapsed_us": result.elapsed_us,
        "page_faults": total.page_faults,
        "diff_messages": total.diff_messages,
        "lock_acquires": total.lock_acquires,
        "recoveries": result.recoveries,
    }
print(json.dumps({"accelerated": sim.ACCELERATED,
                  "fingerprints": fingerprints}, sort_keys=True))
"""


@needs_ccore
def test_same_seed_figure_inputs_bit_identical():
    pure = _run_snippet(FIGURE_SNIPPET, pure=True)
    accel = _run_snippet(FIGURE_SNIPPET, pure=False)
    assert pure["fingerprints"] == accel["fingerprints"]


# -- fault sweep under invariant checking ------------------------------------

SWEEP_SNIPPET = """
import json
import repro.sim as sim
from repro.verify import RecoveryInvariantChecker
from repro.verify.replay import ReplayScenario, build_runtime
outcomes = []
for plan_seed in (11, 212, 3033):
    runtime = build_runtime(ReplayScenario(
        program_seed=91, cluster_seed=5, plan_seed=plan_seed, failures=2))
    checker = RecoveryInvariantChecker(runtime)
    result = runtime.run()
    checker.finalize()
    total = result.counters.total
    outcomes.append({
        "plan_seed": plan_seed,
        "elapsed_us": result.elapsed_us,
        "events_executed": runtime.engine.events_executed,
        "page_faults": total.page_faults,
        "recoveries": result.recoveries,
        "violations": len(checker.violations),
    })
print(json.dumps({"accelerated": sim.ACCELERATED,
                  "outcomes": outcomes}, sort_keys=True))
"""


@needs_ccore
def test_fault_sweep_bit_identical_under_invariants():
    pure = _run_snippet(SWEEP_SNIPPET, pure=True)
    accel = _run_snippet(SWEEP_SNIPPET, pure=False)
    assert pure["outcomes"] == accel["outcomes"]
    for outcome in pure["outcomes"]:
        assert outcome["violations"] == 0, outcome


# -- the three event-free waits ----------------------------------------------

WAIT_CONTRACT_SNIPPET = """
import json
import repro.sim as sim
from tests.sim.test_waits import wait_contract_record
print(json.dumps({"accelerated": sim.ACCELERATED,
                  "record": wait_contract_record()}))
"""


@needs_ccore
def test_wait_contract_bit_identical():
    # Timed waits (success, timeout, failure, retry, kill) and blocking
    # Store.get put the same entries on the event list in both builds.
    pure = _run_snippet(WAIT_CONTRACT_SNIPPET, pure=True)
    accel = _run_snippet(WAIT_CONTRACT_SNIPPET, pure=False)
    assert pure["accelerated"] is False
    assert accel["accelerated"] is True
    assert accel["record"] == pure["record"]
    record = accel["record"]
    assert record["timeout"]["log"][-1][:4] == ["resumed", 10.0, False, None]
    assert record["failed"]["log"][0][:3] == ["raised", 3.0, "boom"]
    assert ["g2", 2.0, "c"] in record["store"]["log"]


WAIT_REACH_SNIPPET = """
import json
import repro.net.vmmc as vmmc
import repro.protocol.ft.protocol as ft_protocol
import repro.sim as sim
from repro.sim.resources import Store
from repro.verify import RecoveryInvariantChecker
from repro.verify.replay import ReplayScenario, build_runtime

reached = {"timed_out": 0, "failed": 0, "parked_get": 0}
plain_wait = sim.timeout_wait
plain_get = Store.get

def counted_wait(engine, event, timeout):
    try:
        ok, value = yield from plain_wait(engine, event, timeout)
    except Exception:
        reached["failed"] += 1
        raise
    if not ok:
        reached["timed_out"] += 1
    return ok, value

def counted_get(store):
    # The NIC loops call get() only once get_nowait() found nothing.
    reached["parked_get"] += 1
    return plain_get(store)

sim.timeout_wait = vmmc.timeout_wait = ft_protocol.timeout_wait = counted_wait
Store.get = counted_get
outcomes = []
for plan_seed in (11, 212, 3033):
    runtime = build_runtime(ReplayScenario(
        program_seed=91, cluster_seed=5, plan_seed=plan_seed, failures=2))
    checker = RecoveryInvariantChecker(runtime)
    result = runtime.run()
    checker.finalize()
    outcomes.append({"plan_seed": plan_seed,
                     "elapsed_us": result.elapsed_us,
                     "events_executed": runtime.engine.events_executed,
                     "violations": len(checker.violations)})
print(json.dumps({"accelerated": sim.ACCELERATED, "reached": reached,
                  "outcomes": outcomes}, sort_keys=True))
"""


@needs_ccore
def test_fault_runs_reach_every_wait_kind_bit_identically():
    # Real fault runs take all three paths -- a timed-out wait, a
    # failed wait and a parked Store.get -- the same way in both builds.
    pure = _run_snippet(WAIT_REACH_SNIPPET, pure=True)
    accel = _run_snippet(WAIT_REACH_SNIPPET, pure=False)
    assert accel["accelerated"] is True
    assert accel["outcomes"] == pure["outcomes"]
    assert accel["reached"] == pure["reached"]
    for kind, count in pure["reached"].items():
        assert count > 0, kind
    for outcome in pure["outcomes"]:
        assert outcome["violations"] == 0, outcome
