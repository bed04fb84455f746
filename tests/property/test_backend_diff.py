"""Differential property tests across kernel backends.

The multi-backend contract (DESIGN.md "Kernel backends") is *bit*
identity, not approximate agreement: every backend pops events in the
exact same ``(time, seq)`` order for any schedule/cancel program,
including callbacks that schedule and cancel further events while
running.

Random programs are interpreted against each implementation and the full
observable trace is compared with ``==``.
"""

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
            before = sim.now
            outcomes.append(_clock_op(sim, handles[i], seen[i], op, arg))
            if backend == "native":
                now = sim.now
                assert now is sim.now
                assert (now is before) == (repr(now) == repr(before)), (op, arg)
        assert outcomes[1:] == outcomes[:-1], (op, arg)
