"""``run_capped``: the one place a capped run's outcome is classified
(``repro replay --record`` and the replay itself both read it)."""

from repro.apps.base import Workload
from repro.config import ClusterConfig
from repro.errors import ApplicationError
from repro.harness.runner import SvmRuntime
from repro.verify.replay import run_capped


class _Spinner(Workload):
    """Threads with an odd tid compute forever; the rest return."""

    name = "spinner"

    def setup(self, runtime) -> None:
        pass

    def kernel(self, ctx):
        while ctx.tid % 2:
            yield from ctx.svm.compute(100.0)


class _WrongAnswer(_Spinner):
    def kernel(self, ctx):
        yield from ctx.svm.compute(100.0)

    def verify(self, runtime) -> None:
        raise ApplicationError("final memory is wrong")


def _runtime(workload):
    return SvmRuntime(ClusterConfig(num_nodes=4, shared_pages=16,
                                    num_locks=4), workload)


def test_budget_exhausted_with_stuck_threads_is_a_hang():
    run = run_capped(_runtime(_Spinner()), 5_000.0)
    assert run["outcome"] == "hang"
    assert run["unfinished"] == [1, 3]
    assert "threads never finished: [1, 3]" in run["error"]
    assert run["elapsed_us"] >= 5_000.0


def test_verify_failure_is_a_mismatch():
    run = run_capped(_runtime(_WrongAnswer()), 5_000.0)
    assert run["outcome"] == "mismatch"
    assert run["unfinished"] == []
    assert run["error"] == "ApplicationError: final memory is wrong"
