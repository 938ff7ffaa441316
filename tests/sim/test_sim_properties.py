"""Property-based tests on the simulation kernel's core guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Delay, Engine, Mutex, Store


@given(st.lists(st.tuples(st.floats(0.0, 1000.0), st.integers(0, 100)),
                min_size=1, max_size=50))
def test_property_events_execute_in_time_order(entries):
    engine = Engine()
    fired = []
    for delay, tag in entries:
        engine.schedule(delay, lambda d=delay, t=tag: fired.append((d, t)))
    engine.run()
    times = [d for d, _t in fired]
    assert times == sorted(times)
    assert len(fired) == len(entries)


@given(st.lists(st.floats(0.1, 50.0), min_size=1, max_size=20))
def test_property_mutex_serializes_total_hold_time(holds):
    """N critical sections of given lengths through one mutex finish at
    exactly the sum of hold times (no overlap, no lost time)."""
    engine = Engine()
    mutex = Mutex(engine)
    done = []

    def worker(hold):
        yield mutex.acquire()
        yield Delay(hold)
        mutex.release()
        done.append(engine.now)

    for hold in holds:
        engine.spawn(worker(hold))
    engine.run()
    assert len(done) == len(holds)
    assert max(done) == sum(holds) or abs(max(done) - sum(holds)) < 1e-9


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=40),
       st.integers(1, 8))
def test_property_store_preserves_fifo(items, capacity):
    engine = Engine()
    store = Store(engine, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    engine.spawn(producer())
    engine.spawn(consumer())
    engine.run()
    assert received == list(items)


@given(st.integers(1, 30), st.floats(0.5, 20.0))
@settings(max_examples=30)
def test_property_determinism(n_procs, base_delay):
    """Identical process sets produce identical event traces."""
    def run_once():
        engine = Engine()
        trace = []

        def worker(tag):
            yield Delay(base_delay * (tag % 5 + 1))
            trace.append((engine.now, tag))
            yield Delay(1.0)
            trace.append((engine.now, tag))

        for tag in range(n_procs):
            engine.spawn(worker(tag))
        engine.run()
        return trace

    assert run_once() == run_once()


# -- scheduler total order ---------------------------------------------------
#
# The engine keeps zero-delay PRIORITY_NORMAL entries in a deque and
# everything else in a heap, merging the two heads by strict
# (time, priority, seq) compare. The observable contract is that this
# split is invisible: execution order equals a single heap ordered by
# (time, priority, seq), including entries scheduled from inside
# running actions and lazily cancelled ones.

import heapq
import itertools

from repro.sim import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.sim.engine import ENTRY_ACTION

_DELAYS = st.one_of(st.just(0.0), st.floats(0.0, 10.0,
                                            allow_nan=False,
                                            allow_infinity=False))
#: A third priority after the normal one, so ties cross all three.
_PRIORITIES = st.sampled_from((PRIORITY_URGENT, PRIORITY_NORMAL, 20))

#: (kind, delay, priority, cancelled, children). kind "now" uses
#: schedule_now (deque path); "sched" uses schedule(), which routes to
#: the deque exactly when delay == 0 and priority == PRIORITY_NORMAL.
_CHILD = st.tuples(st.sampled_from(("sched", "now")), _DELAYS,
                   _PRIORITIES, st.booleans(), st.just(()))
_NODE = st.tuples(st.sampled_from(("sched", "now")), _DELAYS,
                  _PRIORITIES, st.booleans(),
                  st.lists(_CHILD, max_size=3).map(tuple))


def _heap_only_reference(roots):
    """Expected firing order from a single (time, priority, seq) heap.

    Sequence numbers are assigned at schedule time -- children get
    theirs when their parent fires -- mirroring the engine exactly.
    """
    seq = itertools.count()
    heap = []
    tags = itertools.count()

    def push(spec, now):
        kind, delay, priority, cancelled, children = spec
        time = now if kind == "now" else now + delay
        priority = PRIORITY_NORMAL if kind == "now" else priority
        tag = next(tags)
        heapq.heappush(heap, (time, priority, next(seq), tag,
                              cancelled, children))
        return tag

    for root in roots:
        push(root, 0.0)
    order = []
    while heap:
        time, _priority, _seq, tag, cancelled, children = heapq.heappop(heap)
        if cancelled:
            continue  # never fires, so its children are never scheduled
        order.append(tag)
        for child in children:
            push(child, time)
    return order


def _run_engine(roots):
    engine = Engine()
    fired = []
    tags = itertools.count()

    def do_schedule(spec):
        kind, delay, priority, cancelled, children = spec
        tag = next(tags)
        action = lambda t=tag, c=children: fire(t, c)
        if kind == "now":
            handle = engine.schedule_now(action)
        else:
            handle = engine.schedule(delay, action, priority=priority)
        if cancelled:
            handle[ENTRY_ACTION] = None
        return tag

    def fire(tag, children):
        fired.append(tag)
        for child in children:
            do_schedule(child)

    for root in roots:
        do_schedule(root)
    engine.run()
    return fired


@given(st.lists(_NODE, min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_property_mixed_queues_match_heap_only_reference(roots):
    """Deque/heap mixes (with nested scheduling and lazy cancellation)
    fire in exactly the heap-only total order."""
    assert _run_engine(roots) == _heap_only_reference(roots)
