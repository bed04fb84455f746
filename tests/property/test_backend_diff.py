"""Differential property tests across kernel backends.

The multi-backend contract (DESIGN.md "Kernel backends") is *bit*
identity, not approximate agreement: every backend pops events in the
exact same ``(time, seq)`` order for any schedule/cancel program,
including callbacks that schedule and cancel further events while
running.

Random programs are interpreted against each implementation and the full
observable trace is compared with ``==``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ScheduleInPastError, Simulator
from repro.sim.backend import available_backends

# ---------------------------------------------------------------------- #
# event-kernel pop order
# ---------------------------------------------------------------------- #

# one op: (delay bucket, cancel target or None, nested op or None)
_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # delay in tenths
        st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    ),
    min_size=1,
    max_size=40,
)


def _run_program(backend, ops):
    """Interpret a program against one backend; return the full trace."""
    sim = Simulator(backend=backend)
    trace = []
    handles = []

    def make_cb(idx, nested):
        def cb():
            trace.append(("fire", idx, sim.now))
            if nested is not None:
                # schedule a nested event from inside a callback (delay 0
                # exercises the fifo lane)
                handles.append(
                    sim.schedule(nested / 10.0, lambda: trace.append(("nested", idx)))
                )

        return cb

    for idx, (delay, cancel, nested) in enumerate(ops):
        handles.append(sim.schedule(delay / 10.0, make_cb(idx, nested)))
        if cancel is not None and cancel < len(handles):
            if handles[cancel].cancel():
                trace.append(("cancel", cancel))
    sim.run_until_idle()
    return trace, sim.events_executed, sim.events_scheduled, sim.now


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_all_backends_pop_identically(ops):
    reference = _run_program("heap", ops)
    for backend in available_backends()[1:]:
        assert _run_program(backend, ops) == reference, backend


# ---------------------------------------------------------------------- #
# figure-level digest: a full simulated benchmark across backends
# ---------------------------------------------------------------------- #


def test_pingpong_results_identical_across_backends():
    from repro.bench.pingpong import run_pingpong
    from repro.core.session import Session
    from repro.hardware.presets import paper_platform

    results = {}
    for backend in available_backends():
        session = Session(paper_platform(), strategy="greedy", backend=backend)
        res = run_pingpong(session, 65536, segments=2, reps=2, warmup=1)
        results[backend] = (res.bandwidth_MBps, res.one_way_us)
    reference = results.pop("heap")
    for backend, got in results.items():
        assert got == reference, backend


# ---------------------------------------------------------------------- #
# the clock's shape: one float per instant
# ---------------------------------------------------------------------- #

# int and float times, a signed zero, zero delays
_times = st.sampled_from([0, 0.0, -0.0, 1, 1.5, 2, 2.0, 3])
_clock_ops = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _times),
        st.tuples(st.just("schedule"), _times),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("run"), st.one_of(st.none(), _times)),
    ),
    min_size=1,
    max_size=30,
)


def _clock_op(sim, handles, seen, op, arg):
    """Apply one op; the outcome a reader could tell apart across cores."""

    def cb():
        now = sim.now
        seen.append((repr(now), now is sim.now))

    try:
        if op == "at":
            handles.append(sim.at(arg, cb))
        elif op == "schedule":
            handles.append(sim.schedule(arg, cb))
        elif op == "cancel":
            if arg < len(handles):
                handles[arg].cancel()
        elif op == "step":
            sim.step()
        else:
            sim.run(until=arg)
        error = None
    except ScheduleInPastError as exc:  # the error is part of the outcome
        error = str(exc)
    return error, repr(sim.now), [repr(h.time) for h in handles], list(seen)


@given(_clock_ops)
@settings(max_examples=150, deadline=None)
def test_the_clock_is_the_same_float_on_every_core(ops):
    """After every step ``repr(sim.now)`` and every ``repr(ev.time)`` agree
    across cores (an int time is stored as a float; ``at(-0.0)`` at 0.0
    yields -0.0).  On the native core a read returns the one float of the
    instant, and a new one appears once the clock's bits change."""
    backends = available_backends()
    sims = [Simulator(backend=b) for b in backends]
    handles = [[] for _ in sims]
    seen = [[] for _ in sims]
    for op, arg in ops:
        outcomes = []
        for i, (backend, sim) in enumerate(zip(backends, sims)):
            before, fired = sim.now, len(seen[i])
            outcomes.append(_clock_op(sim, handles[i], seen[i], op, arg))
            if backend == "native":
                now = sim.now
                assert now is sim.now
                # the instants the clock passed through: 0.0 -> -0.0 -> 0.0
                # is two changes of bits, and ends on a new float
                instants = {repr(before), repr(now)} | {r for r, _ in seen[i][fired:]}
                assert (now is before) == (len(instants) == 1), (op, arg)
        assert outcomes[1:] == outcomes[:-1], (op, arg)


# ---------------------------------------------------------------------- #
# a process runs the same on every core
# ---------------------------------------------------------------------- #

_SIGNALS = 3
_REQUESTS = 3
#: kids spawned before the processes: a child that has already returned
#: when a process first waits on it (its callback runs during arming),
#: and children that wait first
_KIDS = ((), (1.0,), ("timeout", 2), ("signal", 0))

# floats, ints, a signed zero, negatives and NaN: bare delays and Timeouts
_DELAYS = (0.0, -0.0, 1.0, 2.5, 0, 1, 3, -1.0, -2, float("nan"))
_TIMEOUTS = (0.0, -0.0, 0.5, 1.0, 2, float("nan"))
_leaf = st.one_of(
    st.tuples(st.just("delay"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("timeout"), st.sampled_from(_TIMEOUTS)),
    st.tuples(st.just("signal"), st.integers(0, _SIGNALS - 1)),
    st.tuples(st.just("request"), st.integers(0, _REQUESTS - 1)),
    st.tuples(st.just("kid"), st.integers(0, len(_KIDS) - 1)),
)
_waitable = st.recursive(
    _leaf,
    lambda kids: st.tuples(
        st.sampled_from(["allof", "anyof"]), st.lists(kids, min_size=1, max_size=3)
    ),
    max_leaves=6,
)
_step = st.one_of(
    st.tuples(st.just("yield"), _leaf),  # the delays the core takes itself
    st.tuples(st.just("yield"), _waitable),
    st.tuples(st.just("fire"), st.integers(0, _SIGNALS - 1)),
    st.tuples(st.just("complete"), st.integers(0, _REQUESTS - 1)),
    # yield a run of children that have all returned: 1 500 resumes in
    # one frame would overflow the stack if each nested the next
    st.tuples(st.just("finished"), st.sampled_from([1, 2, 1500])),
    st.tuples(st.sampled_from(["bad", "raise"]), st.none()),
)
_program = st.fixed_dictionaries({
    "procs": st.lists(st.lists(_step, max_size=6), min_size=1, max_size=3),
    # (time in tenths, signal) fired from a plain callback
    "fires": st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, _SIGNALS - 1)), max_size=4
    ),
    # (time in tenths, request) completed from a plain callback
    "completes": st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, _REQUESTS - 1)), max_size=3
    ),
})


def _run_processes(backend, program):
    """Interpret a process program on one core; the trace a reader sees."""
    from repro.core.request import Request
    from repro.sim import AllOf, AnyOf, Signal, Timeout, spawn

    sim = Simulator(backend=backend)
    trace = []
    signals = [Signal(sim, f"s{i}") for i in range(_SIGNALS)]
    requests = [Request(sim, 0, 0, i) for i in range(_REQUESTS)]

    def complete(i):
        if not requests[i].done:
            requests[i]._complete()

    def norm(value):
        if isinstance(value, Request):
            return ("request", value.seq)
        if isinstance(value, (list, tuple)):
            return type(value)(norm(v) for v in value)
        return repr(value)

    def kid(i, shape):
        if shape == ("timeout", 2):
            yield Timeout(2)
        elif shape == ("signal", 0):
            yield signals[0]
        else:
            yield from shape
        return f"kid{i}"

    kids = [spawn(sim, kid(i, shape), name=f"kid{i}") for i, shape in enumerate(_KIDS)]

    def build(item):
        kind, arg = item
        if kind == "delay":
            return arg
        if kind == "timeout":
            return Timeout(arg)
        if kind == "signal":
            return signals[arg]
        if kind == "request":
            return requests[arg]
        if kind == "kid":
            return kids[arg]
        children = [build(child) for child in arg]
        return AllOf(children) if kind == "allof" else AnyOf(children)

    def proc(n, steps):
        for i, (kind, arg) in enumerate(steps):
            if kind == "yield":
                got = yield build(arg)
            elif kind == "fire":
                got = signals[arg].fire((n, i))
            elif kind == "complete":
                got = complete(arg)
            elif kind == "finished":
                done = [spawn(sim, kid(j, ()), name=f"p{n}.{j}") for j in range(arg)]
                yield 0.0  # every one of them has returned now
                for k in done:
                    got = yield k
            elif kind == "bad":
                got = yield f"bad{n}"
            else:
                raise ValueError(f"p{n} step {i}")
            trace.append((n, i, repr(sim.now), norm(got)))
        return f"p{n}"

    for t, s in program["fires"]:
        sim.schedule(t / 10.0, signals[s].fire, ("cb", t))
    for t, r in program["completes"]:
        sim.schedule(t / 10.0, complete, r)
    procs = [
        spawn(sim, proc(n, steps), name=f"p{n}")
        for n, steps in enumerate(program["procs"])
    ]
    for _ in range(50):  # an error leaves the rest of the queue to run
        try:
            sim.run()
            break
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            trace.append(("error", type(exc).__name__, str(exc), repr(sim.now)))
    return (
        trace,
        sim.events_executed,
        repr(sim.now),
        [(p.done, p.value) for p in procs + kids],
    )


@given(_program)
@settings(max_examples=150, deadline=None)
def test_a_process_runs_the_same_on_every_core(program):
    """Delays of every kind (float, int, -0.0, negative, NaN, ``Timeout``),
    signals fired from callbacks and from processes, requests, children
    that have already returned, nested ``AllOf``/``AnyOf``, bad yields and
    raising generators: each resume sees the same instant and value, each
    error is the same, and the same events run on every core.  The native
    core resumes in C; ``Process._advance`` is the reference."""
    reference = _run_processes("heap", program)
    for backend in available_backends()[1:]:
        assert _run_processes(backend, program) == reference, backend



#: every leaf once (Hypothesis draws some of them rarely), and the cases
#: a wrong resume would get wrong first
_LEAVES = (
    [("delay", d) for d in _DELAYS]
    + [("timeout", dt) for dt in _TIMEOUTS]
    + [("signal", 0), ("request", 1)]
    + [("kid", i) for i in range(len(_KIDS))]
)
_CASES = [
    *(
        [("yield", waitable), ("yield", leaf)]
        for leaf in _LEAVES
        for waitable in (leaf, ("allof", [leaf, leaf]), ("anyof", [leaf, ("delay", 5.0)]))
    ),
    # a run of children that have returned: flat, not one frame each
    [("finished", 1500), ("yield", 1.0)],
    # an arm that fails leaves the process arming: the signal's later
    # callback is kept, not sent
    [("yield", ("anyof", [("signal", 0), ("delay", -1.0)])), ("yield", 1.0)],
]


@pytest.mark.parametrize("steps", _CASES, ids=repr)
def test_every_yield_resumes_the_same_on_every_core(steps):
    """Each yield alone, in an ``AllOf`` and in an ``AnyOf``, with a signal
    fired and a request completed from callbacks on the way."""
    program = {"procs": [steps], "fires": [(10, 0), (30, 0)], "completes": [(20, 1)]}
    reference = _run_processes("heap", program)
    for backend in available_backends()[1:]:
        assert _run_processes(backend, program) == reference, backend
