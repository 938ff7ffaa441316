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
    engine.schedule(10.0, lambda: fired.append(1))
    engine.run(until=4.0)
    assert fired == []
    assert engine.now == 4.0
    engine.run()
    assert fired == [1]


def test_run_until_is_inclusive():
    engine = Engine()
    fired = []
    engine.schedule(4.0, lambda: fired.append(1))
    engine.run(until=4.0)
    assert fired == [1]


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

