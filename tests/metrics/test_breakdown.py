"""Unit tests for the two-level time-breakdown clock."""

import pytest

from repro.errors import SimulationError
from repro.metrics import Breakdown, Category, ThreadClock
from repro.sim import Engine


def run_clocked(script):
    """Drive a generator that manipulates a clock inside an engine."""
    engine = Engine()
    clock = ThreadClock(engine)

    def proc():
        yield from script(engine, clock)
        clock.stop()

    engine.spawn(proc())
    engine.run()
    return clock


def test_time_defaults_to_compute():
    def script(engine, clock):
        yield 10.0

    clock = run_clocked(script)
    assert clock.fine[Category.COMPUTE] == 10.0
    assert clock.coarse[Category.COMPUTE] == 10.0


def test_nested_categories_fine_vs_coarse():
    """Diff work inside a barrier: barrier time in the 4-way view,
    diff time in the 6-way view (the paper's two formats)."""
    def script(engine, clock):
        clock.push(Category.BARRIER)
        yield 3.0
        clock.push(Category.DIFF)
        yield 7.0
        clock.pop(Category.DIFF)
        clock.pop(Category.BARRIER)

    clock = run_clocked(script)
    assert clock.fine[Category.BARRIER] == 3.0
    assert clock.fine[Category.DIFF] == 7.0
    assert clock.coarse[Category.BARRIER] == 10.0
    assert Category.DIFF not in clock.coarse


def test_totals_always_sum_to_elapsed():
    def script(engine, clock):
        clock.push(Category.LOCK)
        yield 2.0
        clock.push(Category.CHECKPOINT)
        yield 3.0
        clock.pop(Category.CHECKPOINT)
        clock.pop(Category.LOCK)
        yield 5.0

    clock = run_clocked(script)
    assert sum(clock.fine.values()) == pytest.approx(10.0)
    assert sum(clock.coarse.values()) == pytest.approx(10.0)


def test_pop_mismatch_raises():
    engine = Engine()
    clock = ThreadClock(engine)
    clock.push(Category.LOCK)
    with pytest.raises(SimulationError):
        clock.pop(Category.BARRIER)


def test_pop_empty_raises():
    clock = ThreadClock(Engine())
    with pytest.raises(SimulationError):
        clock.pop(Category.COMPUTE)


def test_stop_freezes_accounting():
    def script(engine, clock):
        yield 4.0
        clock.stop()
        yield 6.0  # after stop: not charged

    engine = Engine()
    clock = ThreadClock(engine)

    def proc():
        yield from script(engine, clock)

    engine.spawn(proc())
    engine.run()
    assert clock.elapsed() == 4.0


def test_reset_zeroes_and_rebases():
    engine = Engine()
    clock = ThreadClock(engine)

    def proc():
        yield 5.0
        clock.reset()
        yield 3.0
        clock.stop()

    engine.spawn(proc())
    engine.run()
    assert clock.elapsed() == 3.0


def test_restart_after_migration_resets_stack():
    engine = Engine()
    clock = ThreadClock(engine)
    clock.push(Category.LOCK)  # stack state at death
    clock.restart()
    assert clock.current is Category.COMPUTE

    def proc():
        yield 2.0
        clock.stop()

    engine.spawn(proc())
    engine.run()
    assert clock.fine[Category.COMPUTE] == pytest.approx(2.0)


def test_breakdown_merge_averages_threads():
    engine = Engine()
    c1 = ThreadClock(engine)
    c2 = ThreadClock(engine)

    def proc(clock, lock_time):
        clock.push(Category.LOCK)
        yield lock_time
        clock.pop(Category.LOCK)
        clock.stop()

    engine.spawn(proc(c1, 10.0))
    engine.spawn(proc(c2, 20.0))
    engine.run()
    merged = Breakdown.merge([c1, c2])
    # c1 also spends 10us in COMPUTE waiting for the run to end? No:
    # both stopped at their own end; averages are (10+20)/2 for lock.
    assert merged.four_component()["lock"] == pytest.approx(15.0)


def test_four_component_folds_nested_protocol_time():
    def script(engine, clock):
        clock.push(Category.DATA_WAIT)
        clock.push(Category.PROTOCOL)
        yield 4.0
        clock.pop(Category.PROTOCOL)
        clock.pop(Category.DATA_WAIT)

    clock = run_clocked(script)
    merged = Breakdown.merge([clock])
    four = merged.four_component()
    assert four["data_wait"] == pytest.approx(4.0)
    six = merged.six_component()
    assert six["protocol"] == pytest.approx(4.0)
    assert six["data_wait"] == pytest.approx(0.0)
