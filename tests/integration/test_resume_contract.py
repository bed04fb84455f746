"""hostbench's calling contract: every resume passes its value explicitly.

hostbench's tracer (``hostbench/tracer.py``) times process resumptions by
replacing ``Process._advance`` on the class with ``traced(proc, value)``,
a function of exactly two positional parameters.  A resume that leaned on
a defaulted argument would raise ``TypeError`` in every traced pass; one
that bypassed the class attribute would go uncounted.  Each workload runs
under a strict wrapper of that shape, and unwrapped with a profile hook
counting ``_advance`` frames.  Same run, same resumes.

The native core resumes a process in C (``Core.resume``) and enters no
``_advance`` frame, unless ``_advance`` has been replaced on the class:
then its processes resume through the wrapper, as on the heap core.  So
on native the wrapper's count is checked against the heap run's frames,
and the unwrapped native run against the heap run's clock and events.
"""

import pytest

from repro import Session, paper_platform
from repro.bench.flood import run_flood
from repro.bench.pingpong import run_pingpong
from repro.mpi.collectives import multilane_allreduce
from repro.mpi.comm import Communicator
from repro.sim.backend import available_backends
from repro.sim.process import Process
from tests.callcount import count_calls


def _pingpong(backend, samples):
    session = Session(paper_platform(), backend=backend)
    run_pingpong(session, 4096, reps=3, warmup=1)
    return session


def _rdv_flood(backend, samples):
    session = Session(
        paper_platform(), strategy="split_balance", samples=samples, backend=backend
    )
    run_flood(session, 256 * 1024, count=40, window=8)
    return session


def _allreduce_p16(backend, samples):
    session = Session(
        paper_platform(n_nodes=16), strategy="aggreg_multirail", backend=backend
    )
    comm = Communicator(session)
    procs = [
        session.spawn(multilane_allreduce(comm.endpoint(r), [float(r)] * 8))
        for r in range(16)
    ]
    session.run_until_idle()
    assert all(p.done and p.value == [120.0] * 8 for p in procs)
    return session


def _unwrapped(workload, backend, samples):
    code = vars(Process)["_advance"].__code__
    frames, session = count_calls(
        lambda: workload(backend, samples), lambda frame_code: frame_code is code
    )
    return frames[True], session


def _strictly_wrapped(workload, backend, samples):
    original = vars(Process)["_advance"]
    calls = 0

    def traced(proc, value):  # the shape of hostbench's resume wrapper
        nonlocal calls
        calls += 1
        return original(proc, value)

    Process._advance = traced
    try:
        session = workload(backend, samples)
    finally:
        Process._advance = original
    return calls, session


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("workload", [_pingpong, _rdv_flood, _allreduce_p16])
def test_a_strict_resume_wrapper_sees_every_resume(workload, backend, samples):
    expected, reference = _unwrapped(workload, "heap", samples)
    frames, plain = _unwrapped(workload, backend, samples)
    calls, wrapped = _strictly_wrapped(workload, backend, samples)
    assert expected > 0
    assert calls == expected
    assert frames == (expected if backend == "heap" else 0)
    outcome = (reference.sim.now, reference.sim.events_executed)
    assert (plain.sim.now, plain.sim.events_executed) == outcome
    assert (wrapped.sim.now, wrapped.sim.events_executed) == outcome
