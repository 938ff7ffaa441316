"""Workload barrier ids cannot reach the runtime's init barrier."""

import pytest

from repro.apps.base import INIT_BARRIER, Workload
from repro.errors import ApplicationError
from repro.harness import SvmRuntime, evaluation_config


class BarrierAt(Workload):
    name = "barrier-at"

    def __init__(self, barrier_id: int) -> None:
        self.barrier_id = barrier_id
        self.passed = 0

    def setup(self, runtime) -> None:
        pass

    def kernel(self, ctx):
        yield from ctx.barrier(self.barrier_id)
        self.passed += 1


def test_the_init_barrier_id_is_refused():
    # Without the check the call shares the init barrier's done marker
    # and is skipped: no barrier is run and no error is raised.
    runtime = SvmRuntime(evaluation_config("base", num_nodes=4),
                         BarrierAt(INIT_BARRIER))
    with pytest.raises(ApplicationError, match="barrier id 7"):
        runtime.run()


@pytest.mark.parametrize("barrier_id", [-1, 8])
def test_ids_outside_the_workload_range_are_refused(barrier_id):
    runtime = SvmRuntime(evaluation_config("base", num_nodes=2),
                         BarrierAt(barrier_id))
    with pytest.raises(ApplicationError, match=f"barrier id {barrier_id}"):
        runtime.run()


def test_the_highest_workload_id_runs():
    workload = BarrierAt(INIT_BARRIER - 1)
    result = SvmRuntime(evaluation_config("ft", num_nodes=2),
                        workload).run()
    assert workload.passed == 2
    assert result.counters.total.barriers > 0
