"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, PRIORITY_URGENT
from repro.sim.engine import ENTRY_ACTION


def test_initial_time_is_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_orders_by_time():
    engine = Engine()
    order = []
    engine.schedule(5.0, lambda: order.append("b"))
    engine.schedule(1.0, lambda: order.append("a"))
    engine.schedule(9.0, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 9.0


def test_ties_break_by_insertion_order():
    engine = Engine()
    order = []
    for tag in range(5):
        engine.schedule(3.0, lambda t=tag: order.append(t))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_beats_insertion_order():
    engine = Engine()
    order = []
    engine.schedule(3.0, lambda: order.append("normal"))
    engine.schedule(3.0, lambda: order.append("urgent"), priority=PRIORITY_URGENT)
    engine.run()
    assert order == ["urgent", "normal"]


def test_run_until_stops_clock_at_bound():
    engine = Engine()
    fired = []
    engine.schedule(10.0, lambda: fired.append(engine.now))
    engine.run(until=4.0)
    assert fired == []
    assert engine.now == 4.0
    assert engine.queue_depth == 1
    engine.run()
    assert fired == [10.0]
    assert engine.now == 10.0


def test_run_until_is_inclusive():
    # Every entry at the cap runs: zero-delay and urgent ones scheduled
    # at the cap too.
    engine = Engine()
    order = []

    def proc():
        yield 4.0
        order.append("process")
        yield 0.0
        order.append("process again")

    def at_cap():
        order.append("normal")
        engine.schedule(0.0, lambda: order.append("zero-delay"))
        engine.schedule(0.0, lambda: order.append("urgent at cap"),
                        priority=PRIORITY_URGENT)

    engine.spawn(proc())
    engine.schedule(4.0, at_cap)
    engine.schedule(4.0, lambda: order.append("urgent"),
                    priority=PRIORITY_URGENT)
    engine.run(until=4.0)
    assert order == ["urgent", "normal", "urgent at cap", "process",
                     "zero-delay", "process again"]
    assert engine.now == 4.0
    assert engine.queue_depth == 0


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    handle = engine.schedule(1.0, lambda: fired.append(1))
    handle[ENTRY_ACTION] = None
    engine.run()
    assert fired == []


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time():
    # How FaultPlan.apply arms a time-based FailureSpec at an absolute
    # instant.
    engine = Engine()
    seen = []
    engine.schedule(2.0, lambda: engine.schedule(
        7.0 - engine.now, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [7.0]


def test_events_scheduled_during_run_execute():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(1.0, lambda: order.append("second"))

    engine.schedule(1.0, first)
    engine.run()
    assert order == ["first", "second"]
    assert engine.now == 2.0


def test_drained_capped_run_ends_at_the_cap():
    engine = Engine()
    fired = []
    engine.schedule(1.0, lambda: fired.append(engine.now))
    engine.run(until=10.0)
    assert fired == [1.0]
    assert engine.now == 10.0
    engine.run(until=10.0)
    assert engine.now == 10.0


def test_cap_is_neither_an_event_nor_a_pending_entry():
    def run(until):
        engine = Engine()
        depths = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: depths.append(engine.queue_depth))
        engine.run(until=until)
        return engine, depths

    full, full_depths = run(None)
    capped, capped_depths = run(3.0)
    assert capped_depths == full_depths == [2, 1, 0]
    assert capped.events_executed == full.events_executed == 3
    assert capped.queue_depth == full.queue_depth == 0
    partial, partial_depths = run(2.0)
    assert partial_depths == [2, 1]
    assert partial.events_executed == 2
    assert partial.queue_depth == 1


def test_run_that_raises_leaves_no_cap_behind():
    engine = Engine()
    fired = []

    def boom():
        raise RuntimeError("boom")

    engine.schedule(1.0, boom)
    engine.schedule(5.0, lambda: fired.append(engine.now))
    with pytest.raises(RuntimeError):
        engine.run(until=3.0)
    assert engine.now == 1.0
    assert engine.queue_depth == 1
    engine.run()
    assert fired == [5.0]
    assert engine.now == 5.0


def test_cap_before_now_is_rejected():
    engine = Engine()
    fired = []
    engine.run(until=5.0)
    engine.schedule(1.0, lambda: fired.append(engine.now))
    with pytest.raises(SimulationError):
        engine.run(until=2.0)
    assert engine.now == 5.0
    assert engine.queue_depth == 1
    engine.run()
    assert fired == [6.0]
    with pytest.raises(SimulationError):
        engine.run(until=2.0)
    assert engine.now == 6.0


def test_priority_is_keyword_only():
    with pytest.raises(TypeError):
        Engine().schedule(1.0, lambda: None, PRIORITY_URGENT)
