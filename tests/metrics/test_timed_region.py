"""The latency book covers the timed region, like every other number
of a ``RunResult``: an operation that began during the init phase
(first-touch faults, the init barrier) is in neither the counters nor
the book, so each operation class counts what its counter counts."""

import pytest

from repro.harness import build_app


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("variant", ["base", "ft"])
@pytest.mark.parametrize("app", ["WaterNsq", "RadixLocal"])
def test_book_counts_equal_the_run_counters(app, variant, threads):
    result = build_app(app, variant, threads, scale="test").run()
    totals = result.counters.total
    book = result.latency
    assert book.histogram("page_fault").count == totals.page_faults
    assert book.histogram("lock_acquire").count == totals.acquires
    assert book.histogram("barrier").count == totals.barriers
