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

from repro.sim import Simulator
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
