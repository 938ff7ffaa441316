"""Unit tests for generator-based processes and events."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    Engine,
    Event,
    ProcessKilled,
    timeout_wait,
)


def test_delay_advances_time():
    engine = Engine()
    trace = []

    def proc():
        trace.append(engine.now)
        yield 10.0
        trace.append(engine.now)
        yield 5
        trace.append(engine.now)

    engine.spawn(proc())
    engine.run()
    assert trace == [0.0, 10.0, 15.0]


#: Timed waits of each kind -- float, int, zero -- with ties at every
#: time, so the wake order also shows the FIFO order within a time.
TIMED_WAITS = (2.5, 2, 0.0, 2.0, 0, 2.5)


def _failure(value) -> str:
    engine = Engine()

    def proc():
        yield value

    engine.spawn(proc(), "bad")
    with pytest.raises(SimulationError) as info:
        engine.run()
    return str(info.value)


def timed_wait_record() -> dict:
    """What the kernel does with yielded numbers, next to what
    ``engine.schedule`` does with the same delays (JSON-ready; the
    accel-identity test compares it across builds)."""
    by_yield, by_schedule = Engine(), Engine()
    woken, fired = [], []

    def proc(tag, delay):
        yield delay
        woken.append([tag, by_yield.now])

    for tag, delay in enumerate(TIMED_WAITS):
        by_yield.spawn(proc(tag, delay))
        by_schedule.schedule(
            0.0, lambda tag=tag, delay=delay: by_schedule.schedule(
                delay, lambda: fired.append([tag, by_schedule.now])))
    by_yield.run()
    by_schedule.run()
    return {
        "woken": woken,
        "fired": fired,
        "events": [by_yield.events_executed,
                   by_schedule.events_executed],
        "negative": _failure(-1.0),
        "negative_int": _failure(-1),
        "unsupported": _failure("soon"),
    }


def test_timed_yields_wake_as_engine_schedule_orders_them():
    record = timed_wait_record()
    assert record["woken"] == record["fired"] == [
        [2, 0.0], [4, 0.0], [1, 2.0], [3, 2.0], [0, 2.5], [5, 2.5]]
    assert all(type(now) is float for _tag, now in record["woken"])
    assert record["events"] == [12, 12]


def test_negative_timed_yield_raises_out_of_run():
    record = timed_wait_record()
    assert record["negative"] == "cannot schedule in the past (delay=-1.0)"
    assert record["negative_int"] == record["negative"]


def test_unsupported_yield_raises_out_of_run():
    assert timed_wait_record()["unsupported"] == (
        "bad yielded unsupported object 'soon'")


def test_process_done_event_carries_return_value():
    engine = Engine()

    def proc():
        yield 1.0
        return 42

    p = engine.spawn(proc())
    engine.run()
    assert p.done.settled and p.done._ok
    assert p.done._value == 42
    assert not p.alive


def test_yield_from_composes_suboperations():
    engine = Engine()

    def sub(n):
        yield n
        return n * 2

    def main():
        a = yield from sub(3.0)
        b = yield from sub(4.0)
        return a + b

    p = engine.spawn(main())
    engine.run()
    assert p.done._value == 14
    assert engine.now == 7.0


def test_event_wakes_waiter_with_value():
    engine = Engine()
    ev = Event(engine)
    results = []

    def waiter():
        value = yield ev
        results.append((engine.now, value))

    engine.spawn(waiter())
    engine.schedule(6.0, lambda: ev.succeed("hello"))
    engine.run()
    assert results == [(6.0, "hello")]


def test_event_failure_raises_in_waiter():
    engine = Engine()
    ev = Event(engine)
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    engine.spawn(waiter())
    engine.schedule(1.0, lambda: ev.fail(ValueError("boom")))
    engine.run()
    assert caught == ["boom"]


def test_waiting_on_settled_event_resumes_immediately():
    engine = Engine()
    ev = Event(engine)
    ev.succeed(7)
    results = []

    def waiter():
        value = yield ev
        results.append(value)

    engine.spawn(waiter())
    engine.run()
    assert results == [7]


def test_event_cannot_settle_twice():
    engine = Engine()
    ev = Event(engine)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_multiple_waiters_all_wake_in_fifo_order():
    engine = Engine()
    ev = Event(engine)
    order = []

    def waiter(tag):
        yield ev
        order.append(tag)

    for tag in range(4):
        engine.spawn(waiter(tag))
    engine.schedule(1.0, lambda: ev.succeed(None))
    engine.run()
    assert order == [0, 1, 2, 3]


def test_kill_runs_finally_blocks():
    engine = Engine()
    cleaned = []

    def victim():
        try:
            yield 100.0
        finally:
            cleaned.append(True)

    p = engine.spawn(victim())
    engine.schedule(1.0, p.kill)
    engine.run()
    assert cleaned == [True]
    assert not p.alive
    assert p.done.settled and not p.done._ok
    assert isinstance(p.done._value, ProcessKilled)


def test_killed_process_never_resumes():
    engine = Engine()
    trace = []

    def victim():
        yield 10.0
        trace.append("should not happen")

    p = engine.spawn(victim())
    engine.schedule(1.0, p.kill)
    engine.run()
    assert trace == []


def test_kill_during_event_wait_detaches_from_event():
    engine = Engine()
    ev = Event(engine)
    trace = []

    def waiter():
        try:
            yield ev
            trace.append("should not happen")
        finally:
            trace.append("cleaned")

    p = engine.spawn(waiter())
    engine.schedule(2.0, p.kill)
    engine.schedule(2.5, lambda: ev.succeed("late"))
    engine.run()
    assert trace == ["cleaned"]
    assert not p.alive


def test_process_kill_is_idempotent():
    engine = Engine()

    def victim():
        yield 10.0

    p = engine.spawn(victim())
    engine.schedule(1.0, p.kill)
    engine.schedule(2.0, p.kill)
    engine.run()
    assert not p.alive


def test_unhandled_exception_propagates_from_run():
    engine = Engine()

    def buggy():
        yield 1.0
        raise RuntimeError("bug")

    engine.spawn(buggy())
    with pytest.raises(RuntimeError, match="bug"):
        engine.run()


def test_spawn_rejects_non_generator():
    engine = Engine()
    with pytest.raises(SimulationError, match="generator"):
        engine.spawn(lambda: None)


def test_timeout_wait_success_path():
    engine = Engine()
    ev = Event(engine)
    results = []

    def waiter():
        ok, value = yield from timeout_wait(ev, timeout=10.0)
        results.append((ok, value, engine.now))

    engine.spawn(waiter())
    engine.schedule(4.0, lambda: ev.succeed("data"))
    engine.run()
    assert results == [(True, "data", 4.0)]


def test_timeout_wait_timeout_path():
    engine = Engine()
    ev = Event(engine)
    results = []

    def waiter():
        ok, value = yield from timeout_wait(ev, timeout=10.0)
        results.append((ok, value, engine.now))

    engine.spawn(waiter())
    engine.run()
    assert results == [(False, None, 10.0)]


def test_process_join_via_done_event():
    engine = Engine()
    trace = []

    def worker():
        yield 7.0
        return "result"

    def parent():
        child = engine.spawn(worker())
        value = yield child.done
        trace.append((engine.now, value))

    engine.spawn(parent())
    engine.run()
    assert trace == [(7.0, "result")]
