"""The wait contract: what a timed wait and a blocking ``Store.get``
put on the event list, entry for entry.

Simulated results depend on the exact event list, so these tests pin
more than outcomes: where each resume sits among the entries around
it, which entries are counted as events, what ``queue_depth`` reads
between a settle and the resume, and when a drained run ends.
:func:`wait_contract_record` gathers every scenario as JSON-ready
data; ``tests/sim/test_accel_identity.py`` compares it across the pure
and compiled kernels.
"""

from repro.sim import Engine, Event, Store, timeout_wait


def _success() -> dict:
    # The resume is a zero-delay FIFO entry queued when the event
    # settles: after "before" (queued first), ahead of "after".
    engine = Engine()
    ev = Event(engine, "reply")
    log = []

    def waiter():
        ok, value = yield from timeout_wait(ev, 10.0)
        log.append(["resumed", engine.now, ok, value, engine.queue_depth])

    def settle():
        engine.schedule(0.0, lambda: log.append(
            ["before", engine.now, engine.queue_depth]))
        ev.succeed("v")
        # The deadline stays pending until the waiter resumes.
        log.append(["settled", engine.queue_depth])
        engine.schedule(0.0, lambda: log.append(["after", engine.now]))

    engine.spawn(waiter())
    engine.schedule(3.0, settle)
    engine.run()
    return {"log": log, "now": engine.now,
            "events": engine.events_executed}


def _timeout() -> dict:
    # (False, None) at exactly start + timeout; the resume is queued
    # when the deadline fires, so an entry at the same time with a
    # later seq ("late") still runs first. A settle after the timeout
    # wakes nothing.
    engine = Engine()
    ev = Event(engine, "reply")
    log = []

    def waiter():
        ok, value = yield from timeout_wait(ev, 10.0)
        log.append(["resumed", engine.now, ok, value, engine.queue_depth])

    engine.spawn(waiter())
    engine.schedule(10.0, lambda: log.append(["early", engine.now]))
    engine.schedule(0.0, lambda: engine.schedule(
        10.0, lambda: log.append(["late", engine.now])))
    engine.schedule(12.0, lambda: ev.succeed("too late"))
    engine.run()
    return {"log": log, "now": engine.now,
            "events": engine.events_executed}


def _failed() -> dict:
    # A failure is re-raised in the waiter; its deadline stays pending
    # and fires later as one counted event that ends the drained run.
    engine = Engine()
    ev = Event(engine, "reply")
    log = []

    def waiter():
        try:
            yield from timeout_wait(ev, 10.0)
        except ValueError as exc:
            log.append(["raised", engine.now, str(exc), engine.queue_depth])

    engine.spawn(waiter())
    engine.schedule(3.0, lambda: ev.fail(ValueError("boom")))
    engine.run()
    return {"log": log, "now": engine.now,
            "events": engine.events_executed}


def _retry() -> dict:
    # A waiter that timed out and waits again on the same event wakes
    # at its retry's position: after "other", which registered between
    # its timeout and its retry.
    engine = Engine()
    ev = Event(engine, "reply")
    log = []

    def retrier():
        while True:
            ok, value = yield from timeout_wait(ev, 5.0)
            log.append(["retrier", engine.now, ok, value])
            if ok:
                return
            yield 1.0

    def other():
        yield 5.5
        value = yield ev
        log.append(["other", engine.now, value])

    engine.spawn(retrier())
    engine.spawn(other())
    engine.schedule(7.0, lambda: ev.succeed("v"))
    engine.run()
    return {"log": log, "now": engine.now,
            "events": engine.events_executed}


def _killed(settle_first: bool) -> dict:
    # A process killed during a timed wait never resumes, even once the
    # event settles; its deadline still fires as a counted event.
    engine = Engine()
    ev = Event(engine, "reply")
    log = []

    def waiter():
        try:
            ok, value = yield from timeout_wait(ev, 10.0)
            log.append(["resumed", engine.now, ok, value])
        finally:
            log.append(["finally", engine.now])

    proc = engine.spawn(waiter())

    def kill():
        if settle_first:
            ev.succeed("v")  # the resume is queued, then cancelled
        proc.kill()

    engine.schedule(2.0, kill)
    if not settle_first:
        engine.schedule(3.0, lambda: ev.succeed("v"))
    engine.run()
    return {"log": log, "now": engine.now,
            "events": engine.events_executed}


def _store() -> dict:
    # Blocked getters are served in arrival order by put and try_put;
    # each resume is queued when the item is handed over. A killed
    # getter still takes its turn, and its item is lost.
    engine = Engine()
    store = Store(engine, name="inbox")
    log = []

    def getter(tag):
        item = yield store.get()
        log.append([tag, engine.now, item])

    procs = [engine.spawn(getter(tag)) for tag in ("g0", "g1", "g2", "g3")]
    engine.schedule(1.0, procs[1].kill)

    def feed():
        store.put("a")
        engine.schedule(0.0, lambda: log.append(["mark", engine.now]))
        log.append(["try_put", store.try_put("b")])
        log.append(["put_settled", store.put("c").settled])
        log.append(["try_put", store.try_put("d")])
        log.append(["queued", len(store)])

    engine.schedule(2.0, feed)
    engine.run()
    return {"log": log, "now": engine.now,
            "events": engine.events_executed, "left": len(store)}


def _ready_get() -> dict:
    # A get that finds an item takes it without an event-list entry.
    engine = Engine()
    store = Store(engine)
    store.try_put("x")
    log = []

    def getter():
        item = yield store.get()
        log.append([engine.now, item])

    engine.spawn(getter())
    engine.run()
    return {"log": log, "events": engine.events_executed}


def wait_contract_record() -> dict:
    """Every scenario of this module, JSON-ready."""
    return {
        "success": _success(),
        "timeout": _timeout(),
        "failed": _failed(),
        "retry": _retry(),
        "killed": _killed(settle_first=False),
        "killed_after_settle": _killed(settle_first=True),
        "store": _store(),
        "ready_get": _ready_get(),
    }


def test_success_resumes_through_a_fifo_entry_queued_at_settle():
    assert _success() == {
        "log": [["settled", 3],
                ["before", 3.0, 3],
                ["resumed", 3.0, True, "v", 1],
                ["after", 3.0]],
        "now": 3.0, "events": 5}


def test_queue_depth_counts_the_deadline_until_the_resume():
    # settle: deadline + "before" + resume; in "before": deadline +
    # resume + "after"; in the resume: "after" only.
    log = _success()["log"]
    assert [entry[-1] for entry in log[:3]] == [3, 3, 1]


def test_timeout_resumes_at_the_deadline_through_a_fifo_entry():
    assert _timeout() == {
        "log": [["early", 10.0], ["late", 10.0],
                ["resumed", 10.0, False, None, 1]],
        "now": 12.0, "events": 7}


def test_failed_wait_reraises_and_its_deadline_fires_later():
    assert _failed() == {
        "log": [["raised", 3.0, "boom", 1]],
        "now": 10.0, "events": 4}


def test_retry_wakes_after_a_waiter_registered_in_between():
    assert _retry() == {
        "log": [["retrier", 5.0, False, None],
                ["other", 7.0, "v"],
                ["retrier", 7.0, True, "v"]],
        "now": 7.0, "events": 9}


def test_killed_waiter_never_resumes():
    assert _killed(settle_first=False) == {
        "log": [["finally", 2.0]], "now": 10.0, "events": 4}
    assert _killed(settle_first=True) == {
        "log": [["finally", 2.0]], "now": 10.0, "events": 3}


def test_blocked_gets_are_served_in_order_and_a_killed_getter_loses_its_item():
    assert _store() == {
        "log": [["try_put", True], ["put_settled", True],
                ["try_put", True], ["queued", 0],
                ["g0", 2.0, "a"], ["mark", 2.0],
                ["g2", 2.0, "c"], ["g3", 2.0, "d"]],
        "now": 2.0, "events": 10, "left": 0}


def test_get_of_a_queued_item_takes_no_event():
    assert _ready_get() == {"log": [[0.0, "x"]], "events": 1}
