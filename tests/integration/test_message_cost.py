"""What one message costs the host, counted in Python-level calls.

Two 2-node floods run under ``sys.setprofile`` and every ``call`` event is
counted: a Python frame entered or a generator resumed.  C calls are not
events, so the C event core's ``schedule``, the clock (a ``property`` over
``attrgetter``) and a hit of the virtual-payload cache cost nothing here.
The count is deterministic: it moves only when the per-message path gains
or loses a Python frame.

**Eager**, in the shape of hostbench's ``flood_eager``: window 32,
``aggreg_multirail``, 2 000 messages of 8 B–4 KB, a drain process on the
receiving side.  Calls per message, CPython 3.11:

    kernel   before   then    now     ceiling
    native   46.80    29.50   28.95   34.0
    heap     50.78    33.48   32.93   38.0

"before" is the path before a send request became its own segment: one
``Segment`` record per ``isend``, one match record per arrival, the
clock read through a Python property five times a message, and one
``_arm`` frame per wait.  "then" is that change; "now" also polls an
empty receive queue without entering ``Driver.poll``.  The heap core pays
four frames more per message than the native one: its
``schedule``/``at``/``EventHandle`` and heap comparisons are Python.

**Rendezvous**, in the shape of hostbench's ``flood_rdv``: window 8,
``split_balance`` with sampled ratios, 1 000 messages of 64 KB / 256 KB /
1 MB:

    kernel   before   now      ceiling
    native   241.75   188.59   205.0
    heap     411.95   358.81   375.0

"before" asked the strategy for every rail on every sweep although all it
held waited for a DMA engine (9.8 consultations, each with a ``backlog``
and a ``dma_idle`` frame, for 2 posted wrappers), entered ``Driver.poll``
for every empty receive queue, and carried a chunk through three closures
and three frozen-dataclass records.

The ceilings sit at least 30 calls (rendezvous) or 12 calls (eager) under
"before" and leave room for interpreter differences (3.12 inlines
comprehensions, which can only lower a count).
"""

import functools
import random
import sys
from collections import deque

import pytest

from repro import Session, paper_platform, sample_rails
from repro.sim.backend import available_backends

CEILING = {"native": 34.0, "heap": 38.0}
MESSAGES = 2_000
WINDOW = 32
TAG = 11
KB = 1024

RDV_CEILING = {"native": 205.0, "heap": 375.0}
RDV_MESSAGES = 1_000
RDV_WINDOW = 8


@functools.lru_cache(maxsize=1)
def _samples():
    """Init-time sampling (sessions of its own, run before counting)."""
    return sample_rails(paper_platform())


def _flood(session, sizes, window):
    """A ``run()`` that streams ``sizes`` from node 0 to node 1, ``window``
    sends in flight, and drains them on node 1 (the interfaces, and with
    them the engines, are made now: outside what is counted)."""
    a, b = session.interface(0), session.interface(1)

    def sender():
        outstanding = deque()
        for size in sizes:
            while len(outstanding) >= window:
                oldest = outstanding.popleft()
                if not oldest.done:
                    yield oldest.completion
            outstanding.append(a.isend(1, TAG, size))
        for req in outstanding:
            if not req.done:
                yield req.completion

    def drain(recvs):
        for req in recvs:
            if not req.done:
                yield req.completion

    def run():
        recvs = [b.irecv(0, TAG) for _ in sizes]
        session.spawn(sender())
        session.spawn(drain(recvs))
        session.run_until_idle()
        return recvs

    return run


def _calls(run):
    """``(calls, result)``: Python ``call`` events while ``run()`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return calls, result


def calls_per_message(backend):
    """Python ``call`` events per message of one eager flood."""
    sizes = random.Random(7).choices((8, 64, 512, 2048, 4096), k=MESSAGES)
    session = Session(paper_platform(), strategy="aggreg_multirail", backend=backend)
    calls, recvs = _calls(_flood(session, sizes, WINDOW))
    assert all(r.done and r.payload.size == n for r, n in zip(recvs, sizes))
    assert session.counters(0)["aggregated_packets"] > 0  # the eager regime, aggregated
    return calls / MESSAGES


def calls_per_rdv_message(backend):
    """Python ``call`` events per message of one rendezvous flood."""
    sizes = random.Random(7).choices((64 * KB, 256 * KB, 1024 * KB), k=RDV_MESSAGES)
    session = Session(
        paper_platform(), strategy="split_balance", samples=_samples(), backend=backend
    )
    calls, recvs = _calls(_flood(session, sizes, RDV_WINDOW))
    assert all(r.done and r.payload.size == n for r, n in zip(recvs, sizes))
    assert session.counters(0)["packets_committed"] == RDV_MESSAGES  # one RDV_REQ each
    return calls / RDV_MESSAGES


@pytest.mark.parametrize("backend", available_backends())
def test_an_eager_message_stays_under_its_call_budget(backend):
    per_message = calls_per_message(backend)
    assert per_message > 10, "the profiler did not see the flood"
    assert per_message <= CEILING[backend], (
        f"{per_message:.2f} Python calls per eager message on {backend}"
        f" (ceiling {CEILING[backend]})"
    )


@pytest.mark.parametrize("backend", available_backends())
def test_a_rendezvous_message_stays_under_its_call_budget(backend):
    per_message = calls_per_rdv_message(backend)
    assert per_message > 100, "the profiler did not see the flood"
    assert per_message <= RDV_CEILING[backend], (
        f"{per_message:.2f} Python calls per rendezvous message on {backend}"
        f" (ceiling {RDV_CEILING[backend]})"
    )
