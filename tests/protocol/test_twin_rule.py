"""Every diff is taken against its twin (paper section 4.2).

A page invalidated while dirty keeps its un-released writes as a
pending record and rebases them onto the fresh copy at the next fetch.
Under the ft protocol that fetch can finish after a release committed
the page's interval and locked it (Fig 4): the rebase then belongs to
that release's diff, and the page must not be made writable again.
The two runs below reach that rebase; a twinless diff fails them.
"""

import pytest

from repro.cluster import Hooks
from repro.errors import ProtocolError
from repro.harness import build_app
from repro.harness.faultplan import FaultPlan
from repro.memory import Access, Diff, compute_diff
from repro.protocol.agent import SvmNodeAgent
from repro.verify.replay import ReplayScenario, build_runtime, run_case


@pytest.fixture
def spied(monkeypatch):
    """Record every twinless diff and every rebase onto a locked page."""
    seen = {"twinless": [], "locked_rebases": []}
    compute = SvmNodeAgent._compute_page_diff
    install = SvmNodeAgent._install_fetched

    def compute_spy(self, page, entry):
        if entry.twin is None:
            seen["twinless"].append((self.node_id, page, self.engine.now))
        return (yield from compute(self, page, entry))

    def install_spy(self, page, data):
        if page in self._pending_local_diffs \
                and self.page_table.entry(page).locked:
            seen["locked_rebases"].append((self.node_id, page))
        install(self, page, data)

    monkeypatch.setattr(SvmNodeAgent, "_compute_page_diff", compute_spy)
    monkeypatch.setattr(SvmNodeAgent, "_install_fetched", install_spy)
    return seen


def test_rebase_under_a_failure_mid_arrival_keeps_the_twin(spied):
    # The fault of tests/ft/test_barrier_recovery.py::
    # test_failure_mid_arrival: recovery invalidates a dirty page and a
    # read fault rebases it while a release holds it locked.
    runtime = build_runtime(ReplayScenario(program_seed=145,
                                           cluster_seed=1))
    [record] = FaultPlan.single(1, Hooks.BARRIER_ENTER, occurrence=2,
                                delay=3.0).apply(runtime.cluster)
    run = run_case(runtime)
    assert record.fired_at is not None
    assert (run.outcome, run.error, run.findings) == ("clean", None, [])
    assert spied["locked_rebases"]
    assert spied["twinless"] == []


def test_rebase_in_a_radix_cell_keeps_the_twin(spied):
    # Failure-free: node 5 rebases page 67 while its release holds it.
    build_app("RadixLocal", "ft", 2, scale="bench", seed=2007).run()
    assert (5, 67) in spied["locked_rebases"]
    assert spied["twinless"] == []


def _agent():
    return build_runtime(ReplayScenario(program_seed=145,
                                        cluster_seed=1)).agents[0]


def test_a_twinless_diff_raises():
    agent = _agent()
    entry = agent.page_table.entry(3)
    entry.dirty = True
    with pytest.raises(ProtocolError, match="page 3 .* no twin"):
        next(agent._compute_page_diff(3, entry))


def test_a_rebase_onto_a_locked_page_rides_the_release():
    agent = _agent()
    page, size = 3, agent.page_size
    entry = agent.page_table.entry(page)
    entry.locked = True
    agent._pending_local_diffs[page] = Diff(page, ((8, b"\x07\x07"),))
    fresh = bytes(range(256)) * (size // 256)
    agent._install_fetched(page, fresh)
    assert entry.access is Access.READ_ONLY
    assert page not in agent.update_list
    assert (entry.twin, entry.dirty) == (fresh, True)
    working = agent.working.read_page(page)
    assert working[8:10] == b"\x07\x07" and working[10:] == fresh[10:]
    # The release's diff is exactly the rebased runs; taking it leaves
    # the page clean and read-only, so the next write takes a new twin.
    diff = compute_diff(page, entry.twin, agent.working.page_view(page))
    assert diff.runs == ((8, b"\x07\x07"),)
    agent._finish_page_release(page)
    assert (entry.twin, entry.dirty, entry.access) == (
        None, False, Access.READ_ONLY)
    assert page not in agent._pending_local_diffs
