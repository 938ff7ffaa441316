/* Accelerated simulation core: Engine, Event, Process, Delay in C.
 *
 * This is a hand-written CPython extension mirroring the pure-Python
 * reference implementation in repro/sim/engine.py and
 * repro/sim/process.py.  The contract is *bit-identical simulated
 * behaviour*: scheduler entries are the same [time, priority, seq,
 * action] Python lists (so cancellation handles interoperate), the
 * fifo/heap merge uses the same (time, priority, seq) total order, and
 * the process trampoline implements the identical settled-event
 * policy (settled successes feed straight back into the generator;
 * settled failures take the scheduled throw path).  Anything observable
 * from simulated code -- event ordering, timestamps, callback order,
 * exception types and messages -- must match the pure path exactly;
 * the test suite pins this with golden trace digests and same-seed
 * fault sweeps run under both builds.
 *
 * Only what every event runs through is written twice.  The helper
 * built from plain schedule calls (timeout_wait) is Python in
 * repro/sim/_core.py and serves both builds.
 *
 * Selection happens in repro/sim/_core.py: the compiled module is
 * used when importable unless REPRO_PURE=1 forces the reference path.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* PRIORITY_NORMAL -- must match repro/sim/engine.py. */
#define PRIO_NORMAL 10

static PyObject *SimulationError;   /* repro.errors.SimulationError */
static PyObject *ProcessKilledExc;  /* repro.sim.process.ProcessKilled */
static PyObject *str_throw, *str_value, *str_send;

static PyTypeObject EngineType;
static PyTypeObject EventType;
static PyTypeObject ProcessType;
static PyTypeObject DelayType;

/* ------------------------------------------------------------------ */
/* Delay                                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double duration;
} DelayObject;

static int
Delay_init(DelayObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"duration", NULL};
    PyObject *dur;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &dur))
        return -1;
    double d = PyFloat_AsDouble(dur);
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    if (d < 0) {
        PyErr_Format(SimulationError, "negative delay: %S", dur);
        return -1;
    }
    self->duration = d;
    return 0;
}

static PyMemberDef Delay_members[] = {
    {"duration", T_DOUBLE, offsetof(DelayObject, duration), 0,
     "suspend the current process for this much simulated time"},
    {NULL}
};

static PyTypeObject DelayType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Delay",
    .tp_basicsize = sizeof(DelayObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Yieldable: suspend the current process for ``duration`` time.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Delay_init,
    .tp_members = Delay_members,
};

/* ------------------------------------------------------------------ */
/* Engine: event list (binary heap + zero-delay ring) and clock        */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *heap;            /* PyList of [time, prio, seq, action] lists */
    PyObject **fifo;           /* ring buffer of owned entry refs */
    Py_ssize_t fifo_cap, fifo_head, fifo_len;
    long long seq;
    double now;
    int running;
    long long events_executed;
} EngineObject;

/* Strict (time, priority, seq) < compare; seq is unique so the action
 * slot is never reached -- identical to the pure list compare. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    PyObject *ta = PyList_GET_ITEM(a, 0), *tb = PyList_GET_ITEM(b, 0);
    if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
        double fa = PyFloat_AS_DOUBLE(ta), fb = PyFloat_AS_DOUBLE(tb);
        if (fa != fb)
            return fa < fb;
        long pa = PyLong_AsLong(PyList_GET_ITEM(a, 1));
        long pb = PyLong_AsLong(PyList_GET_ITEM(b, 1));
        if (pa != pb)
            return pa < pb;
        long long sa = PyLong_AsLongLong(PyList_GET_ITEM(a, 2));
        long long sb = PyLong_AsLongLong(PyList_GET_ITEM(b, 2));
        return sa < sb;
    }
    /* Foreign entry shape: fall back to the generic list compare the
     * pure heap would have used (still deterministic). */
    return PyObject_RichCompareBool(a, b, Py_LT) == 1;
}

/* -- ring buffer (zero-delay PRIORITY_NORMAL entries) -------------- */

static int
ring_grow(EngineObject *e)
{
    Py_ssize_t newcap = e->fifo_cap ? e->fifo_cap * 2 : 64;
    PyObject **buf = PyMem_New(PyObject *, newcap);
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < e->fifo_len; i++)
        buf[i] = e->fifo[(e->fifo_head + i) % e->fifo_cap];
    PyMem_Free(e->fifo);
    e->fifo = buf;
    e->fifo_cap = newcap;
    e->fifo_head = 0;
    return 0;
}

static int
ring_push(EngineObject *e, PyObject *entry)   /* increfs entry */
{
    if (e->fifo_len == e->fifo_cap && ring_grow(e) < 0)
        return -1;
    Py_INCREF(entry);
    e->fifo[(e->fifo_head + e->fifo_len) % e->fifo_cap] = entry;
    e->fifo_len++;
    return 0;
}

static PyObject *
ring_pop(EngineObject *e)                     /* returns owned ref */
{
    PyObject *entry = e->fifo[e->fifo_head];
    e->fifo_head = (e->fifo_head + 1) % e->fifo_cap;
    e->fifo_len--;
    return entry;
}

#define RING_PEEK(e) ((e)->fifo[(e)->fifo_head])

/* -- binary heap on a PyList (same order as heapq) ----------------- */

static void
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        if (!entry_lt(newitem, parent))
            break;
        PyList_SET_ITEM(heap, pos, parent);
        pos = parentpos;
    }
    PyList_SET_ITEM(heap, pos, newitem);
}

static void
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos &&
            !entry_lt(PyList_GET_ITEM(heap, childpos),
                      PyList_GET_ITEM(heap, rightpos)))
            childpos = rightpos;
        PyList_SET_ITEM(heap, pos, PyList_GET_ITEM(heap, childpos));
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    PyList_SET_ITEM(heap, pos, newitem);
    heap_siftdown(heap, startpos, pos);
}

static int
heap_push(EngineObject *e, PyObject *entry)   /* increfs entry */
{
    if (PyList_Append(e->heap, entry) < 0)
        return -1;
    heap_siftdown(e->heap, 0, PyList_GET_SIZE(e->heap) - 1);
    return 0;
}

static PyObject *
heap_pop(EngineObject *e)                     /* returns owned ref */
{
    PyObject *heap = e->heap;
    Py_ssize_t n = PyList_GET_SIZE(heap) - 1;
    /* Steal the last item, shrink in place. */
    PyObject *last = PyList_GET_ITEM(heap, n);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n, n + 1, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 0)
        return last;
    PyObject *ret = PyList_GET_ITEM(heap, 0);   /* steal slot 0 */
    PyList_SET_ITEM(heap, 0, last);
    heap_siftup(heap, 0);
    return ret;
}

/* -- entry construction -------------------------------------------- */

static PyObject *
make_entry(EngineObject *e, double time, long priority, PyObject *action)
{
    PyObject *entry = PyList_New(4);
    if (entry == NULL)
        return NULL;
    PyObject *t = PyFloat_FromDouble(time);
    PyObject *p = PyLong_FromLong(priority);
    PyObject *s = PyLong_FromLongLong(e->seq++);
    if (t == NULL || p == NULL || s == NULL) {
        Py_XDECREF(t); Py_XDECREF(p); Py_XDECREF(s); Py_DECREF(entry);
        return NULL;
    }
    PyList_SET_ITEM(entry, 0, t);
    PyList_SET_ITEM(entry, 1, p);
    PyList_SET_ITEM(entry, 2, s);
    Py_INCREF(action);
    PyList_SET_ITEM(entry, 3, action);
    return entry;
}

/* schedule_now: zero-delay PRIORITY_NORMAL entry onto the ring.
 * Returns an owned ref to the entry (the ring holds its own). */
static PyObject *
engine_schedule_now_entry(EngineObject *e, PyObject *action)
{
    PyObject *entry = make_entry(e, e->now, PRIO_NORMAL, action);
    if (entry == NULL)
        return NULL;
    if (ring_push(e, entry) < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    return entry;
}

/* General schedule.  Returns owned ref. */
static PyObject *
engine_schedule_entry(EngineObject *e, double delay, PyObject *action,
                      long priority)
{
    PyObject *entry = make_entry(e, e->now + delay, priority, action);
    if (entry == NULL)
        return NULL;
    int err = (delay == 0.0 && priority == PRIO_NORMAL)
                  ? ring_push(e, entry)
                  : heap_push(e, entry);
    if (err < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    return entry;
}

/* ------------------------------------------------------------------ */
/* Event                                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *engine;     /* Engine (or None for shared grants) */
    PyObject *name;       /* str */
    PyObject *callbacks;  /* NULL or PyList; items are callables or
                             parked Process objects (woken inline) */
    PyObject *value;
    char settled, ok;
} EventObject;

typedef struct ProcessObject ProcessObject;
static int process_wake(ProcessObject *proc, EventObject *ev);

static int
Event_init(EventObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "name", NULL};
    PyObject *engine, *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|U", kwlist,
                                     &engine, &name))
        return -1;
    Py_INCREF(engine);
    Py_XSETREF(self->engine, engine);
    if (name == NULL) {
        name = PyUnicode_InternFromString("event");
        if (name == NULL)
            return -1;
    }
    else
        Py_INCREF(name);
    Py_XSETREF(self->name, name);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    self->settled = 0;
    self->ok = 0;
    return 0;
}

/* Run the settle callbacks; callbacks list already detached. */
static int
event_run_callbacks(EventObject *self, PyObject *cbs)
{
    if (cbs == NULL)
        return 0;
    Py_ssize_t n = PyList_GET_SIZE(cbs);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *cb = PyList_GET_ITEM(cbs, i);
        if (Py_TYPE(cb) == &ProcessType) {
            if (process_wake((ProcessObject *)cb, self) < 0) {
                Py_DECREF(cbs);
                return -1;
            }
        }
        else {
            PyObject *r = PyObject_CallOneArg(cb, (PyObject *)self);
            if (r == NULL) {
                Py_DECREF(cbs);
                return -1;
            }
            Py_DECREF(r);
        }
    }
    Py_DECREF(cbs);
    return 0;
}

static int
event_settle(EventObject *self, int ok, PyObject *value)
{
    if (self->settled) {
        PyErr_Format(SimulationError, "event %R settled twice", self->name);
        return -1;
    }
    self->settled = 1;
    self->ok = (char)ok;
    Py_INCREF(value);
    Py_XSETREF(self->value, value);
    PyObject *cbs = self->callbacks;
    self->callbacks = NULL;
    return event_run_callbacks(self, cbs);
}

static PyObject *
Event_succeed(EventObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError,
                        "succeed() takes at most 1 argument");
        return NULL;
    }
    PyObject *value = nargs ? args[0] : Py_None;
    if (event_settle(self, 1, value) < 0)
        return NULL;
    Py_INCREF(self);
    return (PyObject *)self;
}

static PyObject *
Event_fail(EventObject *self, PyObject *exc)
{
    if (event_settle(self, 0, exc) < 0)
        return NULL;
    Py_INCREF(self);
    return (PyObject *)self;
}

static PyObject *
Event_add_callback(EventObject *self, PyObject *cb)
{
    if (self->settled) {
        PyObject *r = PyObject_CallOneArg(cb, (PyObject *)self);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
        Py_RETURN_NONE;
    }
    if (self->callbacks == NULL) {
        self->callbacks = PyList_New(0);
        if (self->callbacks == NULL)
            return NULL;
    }
    if (PyList_Append(self->callbacks, cb) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Event_discard_callback(EventObject *self, PyObject *cb)
{
    PyObject *cbs = self->callbacks;
    if (cbs != NULL) {
        Py_ssize_t n = PyList_GET_SIZE(cbs);
        for (Py_ssize_t i = 0; i < n; i++) {
            int eq = PyObject_RichCompareBool(PyList_GET_ITEM(cbs, i), cb,
                                              Py_EQ);
            if (eq < 0)
                return NULL;
            if (eq) {
                if (PyList_SetSlice(cbs, i, i + 1, NULL) < 0)
                    return NULL;
                break;
            }
        }
    }
    Py_RETURN_NONE;
}

/* Park a process on an unsettled event (no bound-method allocation). */
static int
event_add_waiter(EventObject *self, PyObject *proc)
{
    if (self->callbacks == NULL) {
        self->callbacks = PyList_New(0);
        if (self->callbacks == NULL)
            return -1;
    }
    return PyList_Append(self->callbacks, proc);
}

static PyObject *
Event_get_failed(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->settled && !self->ok);
}

static PyObject *
Event_get_settled(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->settled);
}

static PyObject *
Event_get_ok(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->ok);
}

static PyObject *
Event_get_value(EventObject *self, void *closure)
{
    if (!self->settled) {
        PyErr_Format(SimulationError, "event %R has not settled",
                     self->name);
        return NULL;
    }
    PyObject *v = self->value ? self->value : Py_None;
    Py_INCREF(v);
    return v;
}

static PyObject *
Event_get_raw_value(EventObject *self, void *closure)
{
    PyObject *v = self->value ? self->value : Py_None;
    Py_INCREF(v);
    return v;
}

static int
Event_traverse(EventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->name);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    return 0;
}

static int
Event_clear(EventObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->name);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    return 0;
}

static void
Event_dealloc(EventObject *self)
{
    PyObject_GC_UnTrack(self);
    Event_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Event_methods[] = {
    {"succeed", (PyCFunction)Event_succeed, METH_FASTCALL,
     "Settle the event successfully with ``value`` (default None)."},
    {"fail", (PyCFunction)Event_fail, METH_O,
     "Settle the event with an exception."},
    {"add_callback", (PyCFunction)Event_add_callback, METH_O,
     "Register ``cb(event)``; called immediately if already settled."},
    {"discard_callback", (PyCFunction)Event_discard_callback, METH_O,
     "Remove a previously registered callback (no-op when absent)."},
    {NULL}
};

static PyMemberDef Event_members[] = {
    {"engine", T_OBJECT, offsetof(EventObject, engine), READONLY, NULL},
    {"name", T_OBJECT, offsetof(EventObject, name), READONLY, NULL},
    {NULL}
};

static PyGetSetDef Event_getset[] = {
    {"failed", (getter)Event_get_failed, NULL, NULL, NULL},
    {"settled", (getter)Event_get_settled, NULL, NULL, NULL},
    {"value", (getter)Event_get_value, NULL, NULL, NULL},
    {"_settled", (getter)Event_get_settled, NULL, NULL, NULL},
    {"_ok", (getter)Event_get_ok, NULL, NULL, NULL},
    {"_value", (getter)Event_get_raw_value, NULL, NULL, NULL},
    {NULL}
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Event",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A one-shot occurrence processes can wait on.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Event_init,
    .tp_traverse = (traverseproc)Event_traverse,
    .tp_clear = (inquiry)Event_clear,
    .tp_dealloc = (destructor)Event_dealloc,
    .tp_methods = Event_methods,
    .tp_members = Event_members,
    .tp_getset = Event_getset,
};

/* ------------------------------------------------------------------ */
/* Process                                                             */
/* ------------------------------------------------------------------ */

struct ProcessObject {
    PyObject_HEAD
    PyObject *engine;          /* EngineObject */
    PyObject *name;            /* str */
    PyObject *gen;             /* generator */
    PyObject *done;            /* EventObject */
    PyObject *pending_resume;  /* scheduler entry list or NULL */
    PyObject *waiting_on;      /* EventObject or NULL */
    PyObject *wake_value;      /* stashed resume payload or NULL */
    char wake_throw, alive;
};

/* Mirror of Process._on_event_settled for parked C processes: stash
 * the wake payload and schedule the resume via the event list so
 * wakeups at equal times keep deterministic FIFO order. */
static int
process_wake(ProcessObject *proc, EventObject *ev)
{
    if (!proc->alive || proc->waiting_on != (PyObject *)ev)
        return 0;
    PyObject *v = ev->value ? ev->value : Py_None;
    Py_INCREF(v);
    Py_XSETREF(proc->wake_value, v);
    if (!ev->ok)
        proc->wake_throw = 1;
    PyObject *entry = engine_schedule_now_entry(
        (EngineObject *)proc->engine, (PyObject *)proc);
    if (entry == NULL)
        return -1;
    Py_XSETREF(proc->pending_resume, entry);
    return 0;
}

/* Generator raised: StopIteration = normal completion, ProcessKilled =
 * node death, anything else propagates out of engine.run(). */
static PyObject *
process_terminate(ProcessObject *self)
{
    self->alive = 0;
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        PyObject *type, *val, *tb;
        PyErr_Fetch(&type, &val, &tb);
        PyErr_NormalizeException(&type, &val, &tb);
        PyObject *retval = NULL;
        if (val != NULL) {
            retval = PyObject_GetAttr(val, str_value);
            if (retval == NULL) {
                Py_XDECREF(type); Py_XDECREF(val); Py_XDECREF(tb);
                return NULL;
            }
        }
        else {
            retval = Py_None;
            Py_INCREF(retval);
        }
        Py_XDECREF(type); Py_XDECREF(val); Py_XDECREF(tb);
        int err = event_settle((EventObject *)self->done, 1, retval);
        Py_DECREF(retval);
        if (err < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (PyErr_ExceptionMatches(ProcessKilledExc)) {
        PyErr_Clear();
        EventObject *done = (EventObject *)self->done;
        if (!done->settled) {
            PyObject *exc = PyObject_CallFunction(
                ProcessKilledExc, "N",
                PyUnicode_FromFormat("%U killed", self->name));
            if (exc == NULL)
                return NULL;
            int err = event_settle(done, 0, exc);
            Py_DECREF(exc);
            if (err < 0)
                return NULL;
        }
        Py_RETURN_NONE;
    }
    return NULL;  /* re-raise: bug in simulated code surfaces via run() */
}

/* The resume trampoline -- mirror of Process._do_resume, including the
 * settled-event policy (see the pure docstring).  Called directly from
 * the engine run loop (no tp_call dispatch) and via tp_call. */
static PyObject *
process_resume(ProcessObject *self)
{
    PyObject *payload = self->wake_value;   /* owned or NULL */
    self->wake_value = NULL;
    if (payload == NULL) {
        payload = Py_None;
        Py_INCREF(payload);
    }
    int throwing = self->wake_throw;
    self->wake_throw = 0;
    if (!self->alive) {
        Py_DECREF(payload);
        Py_RETURN_NONE;
    }
    Py_CLEAR(self->pending_resume);
    Py_CLEAR(self->waiting_on);
    EngineObject *engine = (EngineObject *)self->engine;
    PyObject *gen = self->gen;
    for (;;) {
        PyObject *yielded = NULL;
        if (throwing) {
            throwing = 0;
            yielded = PyObject_CallMethodOneArg(gen, str_throw, payload);
            Py_DECREF(payload);
            if (yielded == NULL)
                return process_terminate(self);
        }
        else {
            PySendResult sr = PyIter_Send(gen, payload, &yielded);
            Py_DECREF(payload);
            if (sr == PYGEN_RETURN) {
                self->alive = 0;
                int err = event_settle((EventObject *)self->done, 1,
                                       yielded);
                Py_DECREF(yielded);
                if (err < 0)
                    return NULL;
                Py_RETURN_NONE;
            }
            if (sr == PYGEN_ERROR)
                return process_terminate(self);
        }
        PyTypeObject *tp = Py_TYPE(yielded);
        if (tp == &DelayType) {
            double duration = ((DelayObject *)yielded)->duration;
            Py_DECREF(yielded);
            PyObject *entry = engine_schedule_entry(
                engine, duration, (PyObject *)self, PRIO_NORMAL);
            if (entry == NULL)
                return NULL;
            Py_XSETREF(self->pending_resume, entry);
            Py_RETURN_NONE;
        }
        if (tp == &EventType || PyType_IsSubtype(tp, &EventType)) {
            EventObject *ev = (EventObject *)yielded;
            if (ev->settled) {
                if (ev->ok) {
                    /* Trampoline: feed the settled value straight
                     * back -- no event-list round trip. */
                    payload = ev->value ? ev->value : Py_None;
                    Py_INCREF(payload);
                    Py_DECREF(yielded);
                    continue;
                }
                /* Settled failure: keep the scheduled throw path. */
                PyObject *v = ev->value ? ev->value : Py_None;
                Py_INCREF(v);
                Py_XSETREF(self->wake_value, v);
                self->wake_throw = 1;
                Py_DECREF(yielded);
                PyObject *entry = engine_schedule_now_entry(
                    engine, (PyObject *)self);
                if (entry == NULL)
                    return NULL;
                Py_XSETREF(self->pending_resume, entry);
                Py_RETURN_NONE;
            }
            /* Park on the event (transfer our yielded ref). */
            Py_XSETREF(self->waiting_on, yielded);
            if (event_add_waiter(ev, (PyObject *)self) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        if (PyFloat_Check(yielded) || PyLong_Check(yielded)) {
            double d = PyFloat_Check(yielded)
                           ? PyFloat_AS_DOUBLE(yielded)
                           : PyLong_AsDouble(yielded);
            if (d == -1.0 && PyErr_Occurred()) {
                Py_DECREF(yielded);
                return NULL;
            }
            if (d < 0) {
                PyErr_Format(SimulationError,
                             "cannot schedule in the past (delay=%S)",
                             yielded);
                Py_DECREF(yielded);
                return NULL;
            }
            Py_DECREF(yielded);
            PyObject *entry = engine_schedule_entry(
                engine, d, (PyObject *)self, PRIO_NORMAL);
            if (entry == NULL)
                return NULL;
            Py_XSETREF(self->pending_resume, entry);
            Py_RETURN_NONE;
        }
        PyErr_Format(SimulationError, "%U yielded unsupported object %R",
                     self->name, yielded);
        Py_DECREF(yielded);
        return NULL;
    }
}

static PyObject *
Process_call(ProcessObject *self, PyObject *args, PyObject *kwds)
{
    return process_resume(self);
}

static void
process_detach(ProcessObject *self)
{
    if (self->pending_resume != NULL) {
        Py_INCREF(Py_None);
        PyList_SetItem(self->pending_resume, 3, Py_None);
        Py_CLEAR(self->pending_resume);
    }
    if (self->waiting_on != NULL) {
        EventObject *ev = (EventObject *)self->waiting_on;
        PyObject *cbs = ev->callbacks;
        if (cbs != NULL) {
            Py_ssize_t n = PyList_GET_SIZE(cbs);
            for (Py_ssize_t i = 0; i < n; i++) {
                if (PyList_GET_ITEM(cbs, i) == (PyObject *)self) {
                    PyList_SetSlice(cbs, i, i + 1, NULL);
                    break;
                }
            }
        }
        Py_CLEAR(self->waiting_on);
    }
}

static PyObject *
Process_kill(ProcessObject *self, PyObject *noargs)
{
    if (!self->alive)
        Py_RETURN_NONE;
    process_detach(self);
    self->alive = 0;
    PyObject *exc = PyObject_CallFunction(
        ProcessKilledExc, "N",
        PyUnicode_FromFormat("%U killed", self->name));
    if (exc == NULL)
        return NULL;
    PyObject *r = PyObject_CallMethodOneArg(self->gen, str_throw, exc);
    Py_DECREF(exc);
    if (r != NULL)
        Py_DECREF(r);
    else
        PyErr_Clear();  /* ProcessKilled/StopIteration/bugs all swallowed */
    EventObject *done = (EventObject *)self->done;
    if (!done->settled) {
        PyObject *exc2 = PyObject_CallFunction(
            ProcessKilledExc, "N",
            PyUnicode_FromFormat("%U killed", self->name));
        if (exc2 == NULL)
            return NULL;
        int err = event_settle(done, 0, exc2);
        Py_DECREF(exc2);
        if (err < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static int
Process_init(ProcessObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "generator", "name", NULL};
    PyObject *engine, *gen, *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O|U", kwlist,
                                     &EngineType, &engine, &gen, &name))
        return -1;
    if (!PyObject_HasAttr(gen, str_send)) {
        PyErr_Format(SimulationError,
                     "Process needs a generator, got %s "
                     "(did you forget to call the generator function?)",
                     Py_TYPE(gen)->tp_name);
        return -1;
    }
    if (name == NULL) {
        name = PyUnicode_InternFromString("process");
        if (name == NULL)
            return -1;
    }
    else
        Py_INCREF(name);
    Py_INCREF(engine);
    Py_XSETREF(self->engine, engine);
    Py_XSETREF(self->name, name);
    Py_INCREF(gen);
    Py_XSETREF(self->gen, gen);
    PyObject *done_name = PyUnicode_FromFormat("%U.done", name);
    if (done_name == NULL)
        return -1;
    PyObject *done = PyObject_CallFunction((PyObject *)&EventType, "ON",
                                           engine, done_name);
    if (done == NULL)
        return -1;
    Py_XSETREF(self->done, done);
    Py_CLEAR(self->pending_resume);
    Py_CLEAR(self->waiting_on);
    Py_CLEAR(self->wake_value);
    self->wake_throw = 0;
    self->alive = 1;
    /* Start at the current time, after already-queued events at now. */
    PyObject *entry = engine_schedule_now_entry((EngineObject *)engine,
                                                (PyObject *)self);
    if (entry == NULL)
        return -1;
    self->pending_resume = entry;
    return 0;
}

static PyObject *
Process_get_alive(ProcessObject *self, void *closure)
{
    return PyBool_FromLong(self->alive);
}

static int
Process_traverse(ProcessObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->name);
    Py_VISIT(self->gen);
    Py_VISIT(self->done);
    Py_VISIT(self->pending_resume);
    Py_VISIT(self->waiting_on);
    Py_VISIT(self->wake_value);
    return 0;
}

static int
Process_clear(ProcessObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->name);
    Py_CLEAR(self->gen);
    Py_CLEAR(self->done);
    Py_CLEAR(self->pending_resume);
    Py_CLEAR(self->waiting_on);
    Py_CLEAR(self->wake_value);
    return 0;
}

static void
Process_dealloc(ProcessObject *self)
{
    PyObject_GC_UnTrack(self);
    Process_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Process_methods[] = {
    {"kill", (PyCFunction)Process_kill, METH_NOARGS,
     "Fail-stop the process immediately (``finally`` blocks run)."},
    {NULL}
};

static PyMemberDef Process_members[] = {
    {"engine", T_OBJECT, offsetof(ProcessObject, engine), READONLY, NULL},
    {"name", T_OBJECT, offsetof(ProcessObject, name), READONLY, NULL},
    {"done", T_OBJECT, offsetof(ProcessObject, done), READONLY, NULL},
    {"_waiting_on", T_OBJECT, offsetof(ProcessObject, waiting_on),
     READONLY, "event this process is parked on (diagnostics)"},
    {NULL}
};

static PyGetSetDef Process_getset[] = {
    {"alive", (getter)Process_get_alive, NULL, NULL, NULL},
    {NULL}
};

static PyTypeObject ProcessType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Process",
    .tp_basicsize = sizeof(ProcessObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Drives a generator through the engine.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Process_init,
    .tp_call = (ternaryfunc)Process_call,
    .tp_traverse = (traverseproc)Process_traverse,
    .tp_clear = (inquiry)Process_clear,
    .tp_dealloc = (destructor)Process_dealloc,
    .tp_methods = Process_methods,
    .tp_members = Process_members,
    .tp_getset = Process_getset,
};

/* ------------------------------------------------------------------ */
/* Engine methods                                                      */
/* ------------------------------------------------------------------ */

static int
Engine_init(EngineObject *self, PyObject *args, PyObject *kwds)
{
    if (!PyArg_ParseTuple(args, ""))
        return -1;
    PyObject *heap = PyList_New(0);
    if (heap == NULL)
        return -1;
    Py_XSETREF(self->heap, heap);
    for (Py_ssize_t i = 0; i < self->fifo_len; i++) {
        Py_ssize_t idx = (self->fifo_head + i) % self->fifo_cap;
        Py_DECREF(self->fifo[idx]);
    }
    self->fifo_head = self->fifo_len = 0;
    self->seq = 0;
    self->now = 0.0;
    self->running = 0;
    self->events_executed = 0;
    return 0;
}

static PyObject *
Engine_get_now(EngineObject *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
Engine_schedule(EngineObject *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    PyObject *delay_obj, *action;
    long priority = PRIO_NORMAL;
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    if (nargs == 2 && nkw == 0) {
        /* Hot path: schedule(delay, action). */
        delay_obj = args[0];
        action = args[1];
    }
    else if (nargs == 3 && nkw == 0) {
        delay_obj = args[0];
        action = args[1];
        priority = PyLong_AsLong(args[2]);
        if (priority == -1 && PyErr_Occurred())
            return NULL;
    }
    else if (nargs == 2 && nkw == 1 &&
             PyUnicode_CompareWithASCIIString(
                 PyTuple_GET_ITEM(kwnames, 0), "priority") == 0) {
        delay_obj = args[0];
        action = args[1];
        priority = PyLong_AsLong(args[2]);
        if (priority == -1 && PyErr_Occurred())
            return NULL;
    }
    else {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, action, priority=10)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(SimulationError,
                     "cannot schedule in the past (delay=%S)", delay_obj);
        return NULL;
    }
    return engine_schedule_entry(self, delay, action, priority);
}

static PyObject *
Engine_schedule_now(EngineObject *self, PyObject *action)
{
    return engine_schedule_now_entry(self, action);
}

static PyObject *
Engine_spawn(EngineObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"generator", "name", NULL};
    PyObject *gen, *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|U", kwlist,
                                     &gen, &name))
        return NULL;
    if (name != NULL)
        return PyObject_CallFunction((PyObject *)&ProcessType, "OOO",
                                     (PyObject *)self, gen, name);
    return PyObject_CallFunction((PyObject *)&ProcessType, "OO",
                                 (PyObject *)self, gen);
}

static PyObject *
Engine_run(EngineObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", NULL};
    PyObject *until_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &until_obj))
        return NULL;
    if (self->running) {
        PyErr_SetString(SimulationError, "engine.run() is not reentrant");
        return NULL;
    }
    double until = 0.0;
    if (until_obj != Py_None) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    self->running = 1;

    if (until_obj == Py_None) {
        /* Full-run case: the same loop minus the per-event bound
         * check. */
        for (;;) {
            PyObject *entry;
            if (self->fifo_len) {
                if (PyList_GET_SIZE(self->heap) &&
                    entry_lt(PyList_GET_ITEM(self->heap, 0),
                             RING_PEEK(self))) {
                    entry = heap_pop(self);
                    if (entry == NULL)
                        goto fail;
                }
                else
                    entry = ring_pop(self);
            }
            else if (PyList_GET_SIZE(self->heap)) {
                entry = heap_pop(self);
                if (entry == NULL)
                    goto fail;
            }
            else
                break;
            PyObject *action = PyList_GET_ITEM(entry, 3);
            if (action == Py_None) {
                Py_DECREF(entry);
                continue;
            }
            double t = PyFloat_AsDouble(PyList_GET_ITEM(entry, 0));
            if (t < self->now) {
                Py_DECREF(entry);
                PyErr_SetString(SimulationError,
                                "event list went backwards in time");
                goto fail;
            }
            self->now = t;
            PyObject *res = (Py_TYPE(action) == &ProcessType)
                                ? process_resume((ProcessObject *)action)
                                : PyObject_CallNoArgs(action);
            Py_DECREF(entry);
            if (res == NULL)
                goto fail;
            Py_DECREF(res);
            self->events_executed++;
        }
        self->running = 0;
        Py_RETURN_NONE;
    }

    /* Bounded run: mirrors the pure loop (peek before popping so an
     * entry past ``until`` stays queued). */
    while (self->fifo_len || PyList_GET_SIZE(self->heap)) {
        int use_fifo =
            self->fifo_len &&
            (!PyList_GET_SIZE(self->heap) ||
             entry_lt(RING_PEEK(self), PyList_GET_ITEM(self->heap, 0)));
        PyObject *head = use_fifo ? RING_PEEK(self)
                                  : PyList_GET_ITEM(self->heap, 0);
        PyObject *action = PyList_GET_ITEM(head, 3);
        if (action == Py_None) {
            PyObject *dead = use_fifo ? ring_pop(self) : heap_pop(self);
            if (dead == NULL)
                goto fail;
            Py_DECREF(dead);
            continue;
        }
        double t = PyFloat_AsDouble(PyList_GET_ITEM(head, 0));
        if (t > until) {
            self->now = until;
            self->running = 0;
            Py_RETURN_NONE;
        }
        PyObject *entry = use_fifo ? ring_pop(self) : heap_pop(self);
        if (entry == NULL)
            goto fail;
        if (t < self->now) {
            Py_DECREF(entry);
            PyErr_SetString(SimulationError,
                            "event list went backwards in time");
            goto fail;
        }
        self->now = t;
        PyObject *res = (Py_TYPE(action) == &ProcessType)
                            ? process_resume((ProcessObject *)action)
                            : PyObject_CallNoArgs(action);
        Py_DECREF(entry);
        if (res == NULL)
            goto fail;
        Py_DECREF(res);
        self->events_executed++;
    }
    if (until > self->now)
        self->now = until;
    self->running = 0;
    Py_RETURN_NONE;

fail:
    self->running = 0;
    return NULL;
}

static PyObject *
Engine_get_queue_depth(EngineObject *self, void *closure)
{
    Py_ssize_t count = 0;
    Py_ssize_t n = PyList_GET_SIZE(self->heap);
    for (Py_ssize_t i = 0; i < n; i++)
        if (PyList_GET_ITEM(PyList_GET_ITEM(self->heap, i), 3) != Py_None)
            count++;
    for (Py_ssize_t i = 0; i < self->fifo_len; i++) {
        PyObject *entry = self->fifo[(self->fifo_head + i) % self->fifo_cap];
        if (PyList_GET_ITEM(entry, 3) != Py_None)
            count++;
    }
    return PyLong_FromSsize_t(count);
}

static int
Engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->heap);
    for (Py_ssize_t i = 0; i < self->fifo_len; i++)
        Py_VISIT(self->fifo[(self->fifo_head + i) % self->fifo_cap]);
    return 0;
}

static int
Engine_clear(EngineObject *self)
{
    Py_CLEAR(self->heap);
    for (Py_ssize_t i = 0; i < self->fifo_len; i++) {
        Py_ssize_t idx = (self->fifo_head + i) % self->fifo_cap;
        PyObject *entry = self->fifo[idx];
        self->fifo[idx] = NULL;
        Py_DECREF(entry);
    }
    self->fifo_len = 0;
    self->fifo_head = 0;
    return 0;
}

static void
Engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    Engine_clear(self);
    PyMem_Free(self->fifo);
    self->fifo = NULL;
    self->fifo_cap = 0;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Engine_methods[] = {
    {"schedule", (PyCFunction)Engine_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule ``action()`` to run ``delay`` time units from now."},
    {"schedule_now", (PyCFunction)Engine_schedule_now, METH_O,
     "schedule(0.0, action) without the generic checks."},
    {"spawn", (PyCFunction)Engine_spawn, METH_VARARGS | METH_KEYWORDS,
     "Create and start a Process running ``generator``."},
    {"run", (PyCFunction)Engine_run, METH_VARARGS | METH_KEYWORDS,
     "Run events until the list drains or ``until`` passes."},
    {NULL}
};

static PyMemberDef Engine_members[] = {
    {"events_executed", T_LONGLONG, offsetof(EngineObject, events_executed),
     0, "number of events executed so far"},
    {NULL}
};

static PyGetSetDef Engine_getset[] = {
    {"now", (getter)Engine_get_now, NULL,
     "Current simulated time (microseconds by library convention).", NULL},
    {"queue_depth", (getter)Engine_get_queue_depth, NULL,
     "Number of pending (non-cancelled) entries in the event list.", NULL},
    {NULL}
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The simulation clock and event list (accelerated).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Engine_init,
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_methods = Engine_methods,
    .tp_members = Engine_members,
    .tp_getset = Engine_getset,
};

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static struct PyModuleDef ccore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ccore",
    .m_doc = "Accelerated simulation core (Engine/Event/Process/Delay).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ccore(void)
{
    PyObject *errors = PyImport_ImportModule("repro.errors");
    if (errors == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(errors, "SimulationError");
    Py_DECREF(errors);
    if (SimulationError == NULL)
        return NULL;
    PyObject *procmod = PyImport_ImportModule("repro.sim.process");
    if (procmod == NULL)
        return NULL;
    ProcessKilledExc = PyObject_GetAttrString(procmod, "ProcessKilled");
    Py_DECREF(procmod);
    if (ProcessKilledExc == NULL)
        return NULL;
    str_throw = PyUnicode_InternFromString("throw");
    str_value = PyUnicode_InternFromString("value");
    str_send = PyUnicode_InternFromString("send");
    if (str_throw == NULL || str_value == NULL || str_send == NULL)
        return NULL;
    if (PyType_Ready(&DelayType) < 0 || PyType_Ready(&EventType) < 0 ||
        PyType_Ready(&ProcessType) < 0 || PyType_Ready(&EngineType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&ccore_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&DelayType);
    PyModule_AddObject(m, "Delay", (PyObject *)&DelayType);
    Py_INCREF(&EventType);
    PyModule_AddObject(m, "Event", (PyObject *)&EventType);
    Py_INCREF(&ProcessType);
    PyModule_AddObject(m, "Process", (PyObject *)&ProcessType);
    Py_INCREF(&EngineType);
    PyModule_AddObject(m, "Engine", (PyObject *)&EngineType);
    return m;
}
