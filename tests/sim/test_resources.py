"""Unit tests for the Mutex and Store primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Mutex, Store


def test_mutex_provides_mutual_exclusion():
    engine = Engine()
    mutex = Mutex(engine)
    trace = []

    def worker(tag, hold):
        yield mutex.acquire()
        trace.append(("in", tag, engine.now))
        yield hold
        trace.append(("out", tag, engine.now))
        mutex.release()

    engine.spawn(worker("a", 5.0))
    engine.spawn(worker("b", 3.0))
    engine.run()
    assert trace == [
        ("in", "a", 0.0), ("out", "a", 5.0),
        ("in", "b", 5.0), ("out", "b", 8.0),
    ]


def test_mutex_fifo_ordering():
    engine = Engine()
    mutex = Mutex(engine)
    order = []

    def worker(tag):
        yield mutex.acquire()
        order.append(tag)
        yield 1.0
        mutex.release()

    for tag in range(5):
        engine.spawn(worker(tag))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_mutex_release_unlocked_raises():
    engine = Engine()
    with pytest.raises(SimulationError):
        Mutex(engine).release()


def test_store_fifo_get_put():
    engine = Engine()
    store = Store(engine)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer():
        for i in range(3):
            yield 1.0
            yield store.put(i)

    engine.spawn(consumer())
    engine.spawn(producer())
    engine.run()
    assert got == [0, 1, 2]


def test_store_bounded_put_blocks_until_space():
    engine = Engine()
    store = Store(engine, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(("a", engine.now))
        yield store.put("b")  # blocks: capacity 1
        times.append(("b", engine.now))

    def consumer():
        yield 5.0
        item = yield store.get()
        times.append(("got-" + item, engine.now))

    engine.spawn(producer())
    engine.spawn(consumer())
    engine.run()
    assert ("a", 0.0) in times
    assert ("got-a", 5.0) in times
    assert ("b", 5.0) in times


def test_store_try_put_respects_capacity():
    engine = Engine()
    store = Store(engine, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert len(store) == 2


def test_store_get_before_put_hands_item_directly():
    engine = Engine()
    store = Store(engine)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, engine.now))

    engine.spawn(consumer())
    engine.schedule(3.0, lambda: store.put("x"))
    engine.run()
    assert got == [("x", 3.0)]


def test_store_drain_empties_queue():
    engine = Engine()
    store = Store(engine)
    for i in range(4):
        store.try_put(i)
    assert store.drain() == [0, 1, 2, 3]
    assert len(store) == 0


def test_store_drain_with_more_blocked_putters_than_capacity():
    """Draining used to spin forever once the re-admitted putters had
    filled the store again (a failing NIC with a deep reply backlog)."""
    engine = Engine()
    store = Store(engine, capacity=1)
    puts = [store.put(i) for i in range(4)]
    assert [ev.settled for ev in puts] == [True, False, False, False]
    assert store.drain() == [0]
    # One blocked putter fits; the other two are dropped for good.
    assert [ev.settled for ev in puts] == [True, True, False, False]
    assert store.drain() == [1]
    assert len(store) == 0
