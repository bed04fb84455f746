/* Native event core for the repro simulation kernel ("native" backend).
 *
 * The hot state lives outside the Python object graph:
 *
 *   - the event heap is a C array of {time, seq, event*} structs keyed by
 *     (time, seq) — sifting moves 24-byte structs, never touches
 *     refcounts and never calls back into Python for comparisons;
 *   - the zero-delay lane is a C pointer ring consumed by a head cursor;
 *   - the run loop pops, advances the clock and invokes the callback with
 *     one PyObject_Call per event — no interpreter frames between events.
 *
 * Semantics are bit-identical to the pure-Python heap backend
 * (engine.py): same (time, seq) pop order, same zero-delay FIFO lane,
 * same lazy cancellation with tombstone compaction (floor 64 dead +
 * half-heap ratio), same `until` clock clamp.  The differential property
 * suite (tests/property/test_backend_diff.py) asserts this.
 *
 * Event handles are real PyObjects (cancellation and introspection need
 * them to outlive the pop), allocated per schedule; the handle <-> core
 * reference cycle is GC-tracked and broken eagerly on fire/cancel.
 *
 * A process resumes through a Resume, this core's twin of
 * Process._advance (process.py): it sends into the generator itself, and
 * a delay the generator yields becomes a heap entry with the Resume as its
 * callback, with no Python frame in between.
 *
 * Error classes and Timeout are injected from Python via _set_classes()
 * so the module never imports repro.* (no circular import at build time).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stddef.h>

/* ------------------------------------------------------------------ */
/* module-level error classes (injected; fall back to RuntimeError)    */
static PyObject *SimulationError = NULL;
static PyObject *ScheduleInPastError = NULL;
static PyObject *TimeoutType = NULL;
static PyObject *empty_tuple = NULL;
static PyObject *none_args = NULL; /* (None,): what every delay resumes with */
static PyObject *str_dt, *str_wait, *str_arm, *str_finish;

static PyObject *
sim_err(void)
{
    return SimulationError ? SimulationError : PyExc_RuntimeError;
}

static PyObject *
past_err(void)
{
    return ScheduleInPastError ? ScheduleInPastError : PyExc_ValueError;
}

/* ------------------------------------------------------------------ */
typedef struct CoreObject CoreObject;

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *fn;     /* NULL once fired or cancelled */
    PyObject *args;   /* tuple; NULL once fired or cancelled */
    CoreObject *core; /* owned backref while pending; NULL afterwards */
    char alive;       /* 0 after cancel */
    char fired;
    char in_heap;     /* 0 for zero-delay (fifo lane) events */
} EventObject;

typedef struct {
    double t;
    long long seq;
    EventObject *ev; /* owned */
} entry_t;

struct CoreObject {
    PyObject_HEAD
    double now;
    PyObject *now_obj; /* `now` as a float, built on first read; NULL after a change */
    long long seq;
    long long executed;
    long long live;
    long long dead; /* tombstones resident in the heap */
    long long compactions;
    long long compact_min_dead;
    int running;
    entry_t *heap;
    Py_ssize_t heap_len, heap_cap;
    EventObject **fifo; /* owned refs in [fifo_head, fifo_head+fifo_len) */
    Py_ssize_t fifo_head, fifo_len, fifo_cap;
};

static PyTypeObject EventType;
static PyTypeObject CoreType;

/* ------------------------------------------------------------------ */
/* Event                                                               */
/* ------------------------------------------------------------------ */

static void
event_break_core(EventObject *ev)
{
    CoreObject *core = ev->core;
    if (core) {
        ev->core = NULL;
        Py_DECREF((PyObject *)core);
    }
}

static int
event_traverse(EventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fn);
    Py_VISIT(self->args);
    Py_VISIT((PyObject *)self->core);
    return 0;
}

static int
event_clear(EventObject *self)
{
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    event_break_core(self);
    return 0;
}

static void
event_dealloc(EventObject *self)
{
    PyObject_GC_UnTrack(self);
    event_clear(self);
    PyObject_GC_Del(self);
}

static PyObject *
event_cancel(EventObject *self, PyObject *Py_UNUSED(ignored))
{
    if (!self->alive || self->fired)
        Py_RETURN_FALSE;
    self->alive = 0;
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    CoreObject *core = self->core;
    if (core) {
        core->live--;
        if (self->in_heap) {
            core->dead++;
            /* same policy as the heap backend: floor + half-heap ratio */
            if (core->dead >= core->compact_min_dead &&
                core->dead * 2 >= (long long)core->heap_len) {
                Py_ssize_t j = 0, i;
                for (i = 0; i < core->heap_len; i++) {
                    EventObject *e = core->heap[i].ev;
                    if (e->alive) {
                        core->heap[j++] = core->heap[i];
                    }
                    else {
                        Py_DECREF((PyObject *)e);
                    }
                }
                core->heap_len = j;
                core->dead = 0;
                core->compactions++;
                /* entries keep unique (t, seq) keys: heapify restores the
                 * exact pop order of the unfiltered heap */
                for (i = j / 2 - 1; i >= 0; i--) {
                    entry_t item = core->heap[i];
                    Py_ssize_t pos = i;
                    for (;;) {
                        Py_ssize_t child = 2 * pos + 1;
                        if (child >= j)
                            break;
                        if (child + 1 < j) {
                            entry_t *a = &core->heap[child];
                            entry_t *b = &core->heap[child + 1];
                            if (b->t < a->t || (b->t == a->t && b->seq < a->seq))
                                child++;
                        }
                        entry_t *c = &core->heap[child];
                        if (c->t < item.t ||
                            (c->t == item.t && c->seq < item.seq)) {
                            core->heap[pos] = *c;
                            pos = child;
                        }
                        else
                            break;
                    }
                    core->heap[pos] = item;
                }
            }
        }
        event_break_core(self);
    }
    Py_RETURN_TRUE;
}

static PyObject *
event_get_alive(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->alive && !self->fired);
}

static PyObject *
event_get_fired(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->fired);
}

static PyObject *
event_get_time(EventObject *self, void *closure)
{
    return PyFloat_FromDouble(self->time);
}

static PyObject *
event_get_seq(EventObject *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
event_get_fn(EventObject *self, void *closure)
{
    PyObject *fn = self->fn ? self->fn : Py_None;
    Py_INCREF(fn);
    return fn;
}

static PyObject *
event_get_args(EventObject *self, void *closure)
{
    PyObject *args = self->args ? self->args : empty_tuple;
    Py_INCREF(args);
    return args;
}

static PyObject *
event_repr(EventObject *self)
{
    const char *state =
        self->fired ? "fired" : (self->alive ? "pending" : "cancelled");
    char buf[64];
    snprintf(buf, sizeof(buf), "%.3f", self->time);
    return PyUnicode_FromFormat("<NativeEvent t=%s seq=%lld %s>", buf,
                                self->seq, state);
}

static PyMethodDef event_methods[] = {
    {"cancel", (PyCFunction)event_cancel, METH_NOARGS,
     "Cancel the event; True if it was pending."},
    {NULL},
};

static PyGetSetDef event_getset[] = {
    {"alive", (getter)event_get_alive, NULL, "pending (not fired/cancelled)"},
    {"fired", (getter)event_get_fired, NULL, "callback already executed"},
    {"time", (getter)event_get_time, NULL, "scheduled absolute time"},
    {"seq", (getter)event_get_seq, NULL, "FIFO tie-break sequence number"},
    {"fn", (getter)event_get_fn, NULL, "callback (None once fired/cancelled)"},
    {"args", (getter)event_get_args, NULL, "callback args"},
    {NULL},
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "_nativecore.NativeEvent",
    .tp_basicsize = sizeof(EventObject),
    .tp_dealloc = (destructor)event_dealloc,
    .tp_repr = (reprfunc)event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Handle to an event scheduled on a native Core.",
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_methods = event_methods,
    .tp_getset = event_getset,
};

/* ------------------------------------------------------------------ */
/* Core internals                                                      */
/* ------------------------------------------------------------------ */

static int
heap_push(CoreObject *core, double t, long long seq, EventObject *ev)
{
    /* steals a reference to ev */
    if (core->heap_len == core->heap_cap) {
        Py_ssize_t ncap = core->heap_cap ? core->heap_cap * 2 : 64;
        entry_t *nh = PyMem_Realloc(core->heap, ncap * sizeof(entry_t));
        if (!nh) {
            Py_DECREF((PyObject *)ev);
            PyErr_NoMemory();
            return -1;
        }
        core->heap = nh;
        core->heap_cap = ncap;
    }
    Py_ssize_t pos = core->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        entry_t *p = &core->heap[parent];
        if (t < p->t || (t == p->t && seq < p->seq)) {
            core->heap[pos] = *p;
            pos = parent;
        }
        else
            break;
    }
    core->heap[pos].t = t;
    core->heap[pos].seq = seq;
    core->heap[pos].ev = ev;
    return 0;
}

static entry_t
heap_pop(CoreObject *core)
{
    /* caller owns the returned entry's ev reference */
    entry_t top = core->heap[0];
    Py_ssize_t n = --core->heap_len;
    if (n > 0) {
        entry_t item = core->heap[n];
        Py_ssize_t pos = 0;
        for (;;) {
            Py_ssize_t child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n) {
                entry_t *a = &core->heap[child];
                entry_t *b = &core->heap[child + 1];
                if (b->t < a->t || (b->t == a->t && b->seq < a->seq))
                    child++;
            }
            entry_t *c = &core->heap[child];
            if (c->t < item.t || (c->t == item.t && c->seq < item.seq)) {
                core->heap[pos] = *c;
                pos = child;
            }
            else
                break;
        }
        core->heap[pos] = item;
    }
    return top;
}

static void
core_drop_dead_tops(CoreObject *core)
{
    while (core->fifo_len) {
        EventObject *f = core->fifo[core->fifo_head];
        if (f->alive)
            break;
        core->fifo_head++;
        core->fifo_len--;
        if (core->fifo_len == 0)
            core->fifo_head = 0;
        Py_DECREF((PyObject *)f);
    }
    while (core->heap_len && !core->heap[0].ev->alive) {
        entry_t top = heap_pop(core);
        core->dead--;
        Py_DECREF((PyObject *)top.ev);
    }
}

static int
fifo_push(CoreObject *core, EventObject *ev)
{
    /* steals a reference to ev */
    if (core->fifo_head + core->fifo_len == core->fifo_cap) {
        if (core->fifo_head > 0) {
            memmove(core->fifo, core->fifo + core->fifo_head,
                    core->fifo_len * sizeof(EventObject *));
            core->fifo_head = 0;
        }
        if (core->fifo_len == core->fifo_cap) {
            Py_ssize_t ncap = core->fifo_cap ? core->fifo_cap * 2 : 16;
            EventObject **nf =
                PyMem_Realloc(core->fifo, ncap * sizeof(EventObject *));
            if (!nf) {
                Py_DECREF((PyObject *)ev);
                PyErr_NoMemory();
                return -1;
            }
            core->fifo = nf;
            core->fifo_cap = ncap;
        }
    }
    core->fifo[core->fifo_head + core->fifo_len++] = ev;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Core methods                                                        */
/* ------------------------------------------------------------------ */

/* The clock is one float per instant, as on the heap core: every read
 * between two changes returns the same object.  A change is a change of
 * bits, so -0.0 after 0.0 is a new instant to repr(), as it is there. */
static void
core_set_now(CoreObject *core, double t)
{
    if (t != core->now || signbit(t) != signbit(core->now)) {
        core->now = t;
        Py_CLEAR(core->now_obj);
    }
}

static PyObject *
core_get_now(CoreObject *self, void *c)
{
    if (!self->now_obj && !(self->now_obj = PyFloat_FromDouble(self->now)))
        return NULL;
    Py_INCREF(self->now_obj);
    return self->now_obj;
}

/* Queue fn(*args) at t, which the caller has checked is not in the past.
 * Steals args; returns a new reference to the handle.  at(), schedule()
 * and a Resume's delays all push through here. */
static EventObject *
core_push(CoreObject *core, double t, PyObject *fn, PyObject *args)
{
    EventObject *ev = PyObject_GC_New(EventObject, &EventType);
    if (!ev) {
        Py_DECREF(args);
        return NULL;
    }
    core->seq++;
    core->live++;
    ev->time = t;
    ev->seq = core->seq;
    Py_INCREF(fn);
    ev->fn = fn;
    ev->args = args;
    Py_INCREF((PyObject *)core);
    ev->core = core;
    ev->alive = 1;
    ev->fired = 0;
    ev->in_heap = (t != core->now);
    PyObject_GC_Track((PyObject *)ev);
    Py_INCREF((PyObject *)ev); /* the container's reference */
    int rc = ev->in_heap ? heap_push(core, t, ev->seq, ev)
                         : fifo_push(core, ev);
    if (rc < 0) {
        /* container ref consumed by the failed push; undo bookkeeping */
        core->live--;
        ev->alive = 0;
        Py_DECREF((PyObject *)ev);
        return NULL;
    }
    return ev;
}

/* the absolute time of a delay from now; -1 with an exception set on a
 * non-number, a negative delay or NaN.  now + delay >= now, so a time
 * made here is never in the past. */
static int
core_delay_time(CoreObject *core, PyObject *delay_obj, double *t)
{
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return -1;
    if (!(delay >= 0)) { /* rejects NaN too */
        PyErr_Format(past_err(), "negative delay %R", delay_obj);
        return -1;
    }
    *t = core->now + delay;
    return 0;
}

static PyObject *
core_args(PyObject *const *args, Py_ssize_t n)
{
    if (n == 0) {
        Py_INCREF(empty_tuple);
        return empty_tuple;
    }
    PyObject *tuple = PyTuple_New(n);
    if (!tuple)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(tuple, i, args[i]);
    }
    return tuple;
}

static PyObject *
core_at(CoreObject *core, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "at(time, fn, *args)");
        return NULL;
    }
    double t = PyFloat_AsDouble(args[0]);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(t >= core->now)) {
        PyObject *now_obj = core_get_now(core, NULL);
        if (now_obj) {
            PyErr_Format(past_err(),
                         "cannot schedule at %R, current time is %R",
                         args[0], now_obj);
            Py_DECREF(now_obj);
        }
        return NULL;
    }
    PyObject *cb_args = core_args(args + 2, nargs - 2);
    if (!cb_args)
        return NULL;
    return (PyObject *)core_push(core, t, args[1], cb_args);
}

static PyObject *
core_schedule(CoreObject *core, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "schedule(delay, fn, *args)");
        return NULL;
    }
    double t;
    if (core_delay_time(core, args[0], &t) < 0)
        return NULL;
    PyObject *cb_args = core_args(args + 2, nargs - 2);
    if (!cb_args)
        return NULL;
    return (PyObject *)core_push(core, t, args[1], cb_args);
}

/* pick the next event to fire; NULL when idle.  Caller owns the ref. */
static EventObject *
core_pop_next(CoreObject *core, double *t_out)
{
    core_drop_dead_tops(core);
    if (core->fifo_len) {
        EventObject *f = core->fifo[core->fifo_head];
        if (core->heap_len &&
            (core->heap[0].t < f->time ||
             (core->heap[0].t == f->time && core->heap[0].seq < f->seq))) {
            entry_t top = heap_pop(core);
            *t_out = top.t;
            return top.ev;
        }
        core->fifo_head++;
        core->fifo_len--;
        if (core->fifo_len == 0)
            core->fifo_head = 0;
        *t_out = f->time;
        return f;
    }
    if (core->heap_len) {
        entry_t top = heap_pop(core);
        *t_out = top.t;
        return top.ev;
    }
    return NULL;
}

/* peek (t, seq) of the next event without consuming; 0 when idle */
static int
core_peek_next(CoreObject *core, double *t_out)
{
    core_drop_dead_tops(core);
    if (core->fifo_len) {
        EventObject *f = core->fifo[core->fifo_head];
        if (core->heap_len && core->heap[0].t < f->time) {
            *t_out = core->heap[0].t;
            return 1;
        }
        *t_out = f->time;
        return 1;
    }
    if (core->heap_len) {
        *t_out = core->heap[0].t;
        return 1;
    }
    return 0;
}

static int
core_fire(CoreObject *core, EventObject *ev, double t)
{
    /* consumes the caller's reference to ev */
    core_set_now(core, t);
    ev->fired = 1;
    core->live--;
    core->executed++;
    PyObject *fn = ev->fn;
    ev->fn = NULL;
    PyObject *args = ev->args;
    ev->args = NULL;
    event_break_core(ev);
    Py_DECREF((PyObject *)ev);
    if (!fn) {
        /* defensive: a live event always has its callback */
        Py_XDECREF(args);
        PyErr_SetString(sim_err(), "live event lost its callback");
        return -1;
    }
    PyObject *res = PyObject_Call(fn, args ? args : empty_tuple, NULL);
    Py_DECREF(fn);
    Py_XDECREF(args);
    if (!res)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyObject *
core_run(CoreObject *core, PyObject *const *args, Py_ssize_t nargs)
{
    /* run(until_or_None, max_events_or_None) — positional only; the
     * Python wrapper provides the keyword-friendly signature. */
    double until = 0.0;
    int have_until = 0;
    long long max_events = -1;
    if (nargs >= 1 && args[0] != Py_None) {
        until = PyFloat_AsDouble(args[0]);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
        have_until = 1;
    }
    if (nargs >= 2 && args[1] != Py_None) {
        max_events = PyLong_AsLongLong(args[1]);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    if (core->running) {
        PyErr_SetString(sim_err(), "simulator is not reentrant");
        return NULL;
    }
    core->running = 1;
    long long executed = 0;
    for (;;) {
        double t;
        if (!core_peek_next(core, &t))
            break;
        if (have_until && t > until)
            break;
        if (max_events >= 0 && executed >= max_events)
            break;
        EventObject *ev = core_pop_next(core, &t);
        executed++;
        if (core_fire(core, ev, t) < 0) {
            core->running = 0;
            return NULL;
        }
    }
    if (have_until && core->now < until)
        core_set_now(core, until);
    core->running = 0;
    Py_RETURN_NONE;
}

static PyObject *
core_step(CoreObject *core, PyObject *Py_UNUSED(ignored))
{
    double t;
    EventObject *ev = core_pop_next(core, &t);
    if (!ev)
        Py_RETURN_FALSE;
    if (core_fire(core, ev, t) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
core_peek_next_time(CoreObject *core, PyObject *Py_UNUSED(ignored))
{
    double t;
    if (!core_peek_next(core, &t))
        Py_RETURN_NONE;
    return PyFloat_FromDouble(t);
}

/* ------------------------------------------------------------------ */
/* Resume: a process's resume callable                                 */
/* ------------------------------------------------------------------ */

/* Process._advance in C, one per process (Core.resume makes it).  It
 * sends into the generator; a plain delay it yields (a float >= 0 or a
 * Timeout) is pushed as an event whose callback is the Resume itself,
 * exactly the event sim.schedule(dt, resume, None) makes.  Anything else
 * arms through the waitable's wait() or Process._arm, and a value
 * delivered while arming is sent by the loop below, not by a nested
 * call.  Process._advance is the reference: same sends, same events,
 * same errors. */
typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    CoreObject *core;
    PyObject *proc;
    PyObject *gen;
    PyObject *sent; /* the value a callback delivered while arming */
    char arming;    /* left set by a failed arm, as _advance leaves _sync */
} ResumeObject;

static PyTypeObject ResumeType;

static PyObject *
resume_push(ResumeObject *self, double t)
{
    Py_INCREF(none_args);
    EventObject *ev = core_push(self->core, t, (PyObject *)self, none_args);
    if (!ev)
        return NULL;
    Py_DECREF((PyObject *)ev);
    Py_RETURN_NONE;
}

/* sends `value` (a reference this steals) until the process waits */
static PyObject *
resume_loop(ResumeObject *self, PyObject *value)
{
    for (;;) {
        PyObject *yielded;
        PySendResult sent = PyIter_Send(self->gen, value, &yielded);
        Py_DECREF(value);
        if (sent == PYGEN_ERROR)
            return NULL;
        if (sent == PYGEN_RETURN) {
            PyObject *res =
                PyObject_CallMethodOneArg(self->proc, str_finish, yielded);
            Py_DECREF(yielded);
            return res;
        }
        if (PyFloat_CheckExact(yielded)) {
            double dt = PyFloat_AS_DOUBLE(yielded);
            if (dt >= 0.0) {
                Py_DECREF(yielded);
                return resume_push(self, self->core->now + dt);
            }
        }
        else if ((PyObject *)Py_TYPE(yielded) == TimeoutType) {
            double t;
            PyObject *dt = PyObject_GetAttr(yielded, str_dt);
            Py_DECREF(yielded);
            if (!dt)
                return NULL;
            int rc = core_delay_time(self->core, dt, &t);
            Py_DECREF(dt);
            if (rc < 0)
                return NULL;
            return resume_push(self, t);
        }
        self->arming = 1;
        PyObject *wait, *res;
#if PY_VERSION_HEX >= 0x030D0000
        int found = PyObject_GetOptionalAttr(yielded, str_wait, &wait);
#else
        int found = _PyObject_LookupAttr(yielded, str_wait, &wait);
#endif
        if (found > 0) { /* a waitable: no _arm frame in between */
            res = PyObject_CallOneArg(wait, (PyObject *)self);
            Py_DECREF(wait);
        }
        else if (found == 0)
            res = PyObject_CallMethodObjArgs(self->proc, str_arm, yielded,
                                             (PyObject *)self, NULL);
        else
            res = NULL;
        Py_DECREF(yielded);
        if (!res)
            return NULL;
        Py_DECREF(res);
        self->arming = 0;
        value = self->sent;
        self->sent = NULL;
        if (!value) /* armed: a later callback resumes us */
            Py_RETURN_NONE;
    }
}

static PyObject *
resume_vectorcall(PyObject *callable, PyObject *const *args, size_t nargsf,
                  PyObject *kwnames)
{
    ResumeObject *self = (ResumeObject *)callable;
    if (PyVectorcall_NARGS(nargsf) != 1 ||
        (kwnames && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "resume(value) takes one argument");
        return NULL;
    }
    if (!self->gen) { /* defensive: the collector cleared a cycle */
        PyErr_SetString(sim_err(), "resume of a collected process");
        return NULL;
    }
    Py_INCREF(args[0]);
    if (self->arming) { /* called back from inside wait() / _arm */
        Py_XSETREF(self->sent, args[0]);
        Py_RETURN_NONE;
    }
    Py_INCREF(callable); /* _finish drops the process's reference */
    PyObject *res = resume_loop(self, args[0]);
    Py_DECREF(callable);
    return res;
}

static int
resume_traverse(ResumeObject *self, visitproc visit, void *arg)
{
    Py_VISIT((PyObject *)self->core);
    Py_VISIT(self->proc);
    Py_VISIT(self->gen);
    Py_VISIT(self->sent);
    return 0;
}

static int
resume_clear(ResumeObject *self)
{
    Py_CLEAR(self->core);
    Py_CLEAR(self->proc);
    Py_CLEAR(self->gen);
    Py_CLEAR(self->sent);
    return 0;
}

static void
resume_dealloc(ResumeObject *self)
{
    PyObject_GC_UnTrack(self);
    resume_clear(self);
    PyObject_GC_Del(self);
}

static PyTypeObject ResumeType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "_nativecore.Resume",
    .tp_basicsize = sizeof(ResumeObject),
    .tp_dealloc = (destructor)resume_dealloc,
    .tp_vectorcall_offset = offsetof(ResumeObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "A process's resume callable (Process._advance in C).",
    .tp_traverse = (traverseproc)resume_traverse,
    .tp_clear = (inquiry)resume_clear,
};

static PyObject *
core_resume(CoreObject *core, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "resume(process, generator)");
        return NULL;
    }
    ResumeObject *self = PyObject_GC_New(ResumeObject, &ResumeType);
    if (!self)
        return NULL;
    self->vectorcall = resume_vectorcall;
    Py_INCREF((PyObject *)core);
    self->core = core;
    Py_INCREF(args[0]);
    self->proc = args[0];
    Py_INCREF(args[1]);
    self->gen = args[1];
    self->sent = NULL;
    self->arming = 0;
    PyObject_GC_Track((PyObject *)self);
    return (PyObject *)self;
}

/* ------------------------------------------------------------------ */
/* Core lifecycle                                                      */
/* ------------------------------------------------------------------ */

static PyObject *
core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CoreObject *core = (CoreObject *)type->tp_alloc(type, 0);
    if (!core)
        return NULL;
    core->now = 0.0;
    core->compact_min_dead = 64;
    return (PyObject *)core;
}

static int
core_traverse(CoreObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->heap_len; i++)
        Py_VISIT((PyObject *)self->heap[i].ev);
    for (Py_ssize_t i = 0; i < self->fifo_len; i++)
        Py_VISIT((PyObject *)self->fifo[self->fifo_head + i]);
    return 0;
}

static int
core_clear_impl(CoreObject *self)
{
    Py_ssize_t i;
    Py_ssize_t hn = self->heap_len, fn = self->fifo_len, fh = self->fifo_head;
    self->heap_len = 0;
    self->fifo_len = 0;
    self->fifo_head = 0;
    for (i = 0; i < hn; i++)
        Py_CLEAR(self->heap[i].ev);
    for (i = 0; i < fn; i++)
        Py_CLEAR(self->fifo[fh + i]);
    return 0;
}

static void
core_dealloc(CoreObject *self)
{
    PyObject_GC_UnTrack(self);
    core_clear_impl(self);
    PyMem_Free(self->heap);
    PyMem_Free(self->fifo);
    Py_XDECREF(self->now_obj);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
core_get_pending(CoreObject *self, void *c)
{
    return PyLong_FromLongLong(self->live);
}

static PyObject *
core_get_executed(CoreObject *self, void *c)
{
    return PyLong_FromLongLong(self->executed);
}

static PyObject *
core_get_scheduled(CoreObject *self, void *c)
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
core_get_compactions(CoreObject *self, void *c)
{
    return PyLong_FromLongLong(self->compactions);
}

static PyObject *
core_get_dead(CoreObject *self, void *c)
{
    return PyLong_FromLongLong(self->dead);
}

static PyObject *
core_get_heap_size(CoreObject *self, void *c)
{
    return PyLong_FromSsize_t(self->heap_len);
}

static PyObject *
core_get_compact_min_dead(CoreObject *self, void *c)
{
    return PyLong_FromLongLong(self->compact_min_dead);
}

static int
core_set_compact_min_dead(CoreObject *self, PyObject *v, void *c)
{
    long long n = PyLong_AsLongLong(v);
    if (n == -1 && PyErr_Occurred())
        return -1;
    self->compact_min_dead = n;
    return 0;
}

static PyMethodDef core_methods[] = {
    {"at", (PyCFunction)core_at, METH_FASTCALL,
     "at(time, fn, *args) -> NativeEvent"},
    {"schedule", (PyCFunction)core_schedule, METH_FASTCALL,
     "schedule(delay, fn, *args) -> NativeEvent"},
    {"run", (PyCFunction)core_run, METH_FASTCALL,
     "run(until_or_None, max_events_or_None)"},
    {"step", (PyCFunction)core_step, METH_NOARGS,
     "Execute the next event; False when idle."},
    {"peek_next_time", (PyCFunction)core_peek_next_time, METH_NOARGS,
     "Time of the next live event, or None."},
    {"resume", (PyCFunction)core_resume, METH_FASTCALL,
     "resume(process, generator) -> Resume"},
    {NULL},
};

static PyGetSetDef core_getset[] = {
    {"now", (getter)core_get_now, NULL, "current simulated time"},
    {"pending", (getter)core_get_pending, NULL, "live events queued"},
    {"events_executed", (getter)core_get_executed, NULL, NULL},
    {"events_scheduled", (getter)core_get_scheduled, NULL, NULL},
    {"heap_compactions", (getter)core_get_compactions, NULL, NULL},
    {"dead", (getter)core_get_dead, NULL, "tombstones in the heap"},
    {"heap_size", (getter)core_get_heap_size, NULL, NULL},
    {"compact_min_dead", (getter)core_get_compact_min_dead,
     (setter)core_set_compact_min_dead, "compaction floor (testing knob)"},
    {NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "_nativecore.Core",
    .tp_basicsize = sizeof(CoreObject),
    .tp_dealloc = (destructor)core_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native discrete-event core (heap + zero-delay lane).",
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear_impl,
    .tp_methods = core_methods,
    .tp_getset = core_getset,
    .tp_new = core_new,
};

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyObject *
mod_set_classes(PyObject *mod, PyObject *args)
{
    PyObject *se, *spe, *timeout;
    if (!PyArg_ParseTuple(args, "OOO", &se, &spe, &timeout))
        return NULL;
    Py_INCREF(se);
    Py_XSETREF(SimulationError, se);
    Py_INCREF(spe);
    Py_XSETREF(ScheduleInPastError, spe);
    Py_INCREF(timeout);
    Py_XSETREF(TimeoutType, timeout);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"_set_classes", mod_set_classes, METH_VARARGS,
     "Inject (SimulationError, ScheduleInPastError, Timeout)."},
    {NULL},
};

static struct PyModuleDef nativecore_module = {
    PyModuleDef_HEAD_INIT,
    "_nativecore",
    "Native (C) event core for the repro simulation kernel.",
    -1,
    module_methods,
};

PyMODINIT_FUNC
PyInit__nativecore(void)
{
    if (PyType_Ready(&EventType) < 0 || PyType_Ready(&CoreType) < 0 ||
        PyType_Ready(&ResumeType) < 0)
        return NULL;
    empty_tuple = PyTuple_New(0);
    none_args = PyTuple_Pack(1, Py_None);
    str_dt = PyUnicode_InternFromString("dt");
    str_wait = PyUnicode_InternFromString("wait");
    str_arm = PyUnicode_InternFromString("_arm");
    str_finish = PyUnicode_InternFromString("_finish");
    if (!empty_tuple || !none_args || !str_dt || !str_wait || !str_arm ||
        !str_finish)
        return NULL;
    PyObject *mod = PyModule_Create(&nativecore_module);
    if (!mod)
        return NULL;
    Py_INCREF(&EventType);
    PyModule_AddObject(mod, "NativeEvent", (PyObject *)&EventType);
    Py_INCREF(&CoreType);
    PyModule_AddObject(mod, "Core", (PyObject *)&CoreType);
    Py_INCREF(&ResumeType);
    PyModule_AddObject(mod, "Resume", (PyObject *)&ResumeType);
    PyModule_AddIntConstant(mod, "ABI_VERSION", 1);
    return mod;
}
