"""What one eager message costs the host, counted in Python-level calls.

A 2-node eager flood in the shape of hostbench's ``flood_eager`` — window
32, ``aggreg_multirail``, 2 000 messages of 8 B–4 KB, a drain process on
the receiving side — runs under ``sys.setprofile``, and every ``call``
event is counted: a Python frame entered or a generator resumed.  C calls
are not events, so the C event core's ``schedule``, the clock (a
``property`` over ``attrgetter``) and a hit of the virtual-payload cache
cost nothing here.  The count is deterministic: it moves only when the
per-message path gains or loses a Python frame.

Calls per message, CPython 3.11:

    kernel   before   now     ceiling
    native   46.80    29.50   34.0
    heap     50.78    33.48   38.0

"before" is the path before a send request became its own segment: one
``Segment`` record per ``isend``, one match record per arrival, the
clock read through a Python property five times a message, and one
``_arm`` frame per wait.  The heap core pays four frames more per message
than the native one: its ``schedule``/``at``/``EventHandle`` and heap
comparisons are Python.  The ceilings sit at least 12 calls under
"before" and leave room for interpreter differences (3.12 inlines
comprehensions; this path runs none per message).
"""

import random
import sys
from collections import deque

import pytest

from repro import Session, paper_platform
from repro.sim.backend import available_backends

CEILING = {"native": 34.0, "heap": 38.0}
MESSAGES = 2_000
WINDOW = 32
TAG = 11


def calls_per_message(backend):
    """Python ``call`` events per message of one eager flood."""
    sizes = random.Random(7).choices((8, 64, 512, 2048, 4096), k=MESSAGES)
    session = Session(paper_platform(), strategy="aggreg_multirail", backend=backend)
    a, b = session.interface(0), session.interface(1)

    def sender():
        outstanding = deque()
        for size in sizes:
            while len(outstanding) >= WINDOW:
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

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        recvs = [b.irecv(0, TAG) for _ in sizes]
        session.spawn(sender())
        session.spawn(drain(recvs))
        session.run_until_idle()
    finally:
        sys.setprofile(previous)
    assert all(r.done and r.payload.size == n for r, n in zip(recvs, sizes))
    assert session.counters(0)["aggregated_packets"] > 0  # the eager regime, aggregated
    return calls / MESSAGES


@pytest.mark.parametrize("backend", available_backends())
def test_an_eager_message_stays_under_its_call_budget(backend):
    per_message = calls_per_message(backend)
    assert per_message > 10, "the profiler did not see the flood"
    assert per_message <= CEILING[backend], (
        f"{per_message:.2f} Python calls per eager message on {backend}"
        f" (ceiling {CEILING[backend]})"
    )
