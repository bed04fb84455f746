"""What one message costs the host, counted in Python-level calls.

Two 2-node floods run under ``sys.setprofile`` and every ``call`` event is
counted: a Python frame entered or a generator resumed.  C calls are not
events, so the C event core's ``schedule``, the clock (a ``property`` over
``attrgetter``) and a hit of the virtual-payload cache cost nothing here.
The count is deterministic: it moves only when the per-message path gains
or loses a Python frame.  ``tests/callcount.py`` counts it by layer; both
floods enter ``core.matching`` twice a message (the post, the arrival).

**Eager**, in the shape of hostbench's ``flood_eager``: window 32,
``aggreg_multirail``, 2 000 messages of 8 B–4 KB, a drain process on the
receiving side.  Calls per message, CPython 3.11:

    kernel   before   then    idle    now     ceiling
    native   46.80    29.50   28.95   24.55   30.0
    heap     50.78    33.48   32.93   31.46   38.0

"before" is the path before a send request became its own segment: one
``Segment`` record per ``isend``, one match record per arrival, the
clock read through a Python property five times a message, and one
``_arm`` frame per wait.  "then" is that change; "idle" also polls an
empty receive queue without entering ``Driver.poll``.  "now" resumes a
native process in C: the core sends into the generator and pushes the
delay it yields, with no ``Process._advance`` frame per resume (the heap
core keeps that frame; its count moved with other changes).  The heap
core pays seven frames more per message than the native one: its
``schedule``/``at``/``EventHandle``, heap comparisons and resumes are
Python.

**Rendezvous**, in the shape of hostbench's ``flood_rdv``: window 8,
``split_balance`` with sampled ratios, 1 000 messages of 64 KB / 256 KB /
1 MB:

    kernel   before   then     now      ceiling
    native   241.75   188.59   151.91   168.0
    heap     411.95   358.81   345.88   375.0

"before" asked the strategy for every rail on every sweep although all it
held waited for a DMA engine (9.8 consultations, each with a ``backlog``
and a ``dma_idle`` frame, for 2 posted wrappers), entered ``Driver.poll``
for every empty receive queue, and carried a chunk through three closures
and three frozen-dataclass records.  "then" is that change; "now" resumes
a native process in C, as above.

The native ceilings sit about 5 calls (eager) or 16 calls (rendezvous)
over "now", far under "before", and leave room for interpreter differences (3.12 inlines
comprehensions, which can only lower a count).

**Set-up and a figure point.**  ``Session()`` on ``paper_platform()`` with
``aggreg_multirail`` and on ``single_rail_platform(MYRI_10G)`` with
``aggreg`` (the spec built outside the count, after one session of the
same rail set), and a figure point: a fresh 2-node session plus
``run_pingpong(segments=2, reps=3, warmup=1)`` at 4 B and 64 KB:

    kernel   what                 before   then    now     ceiling
    native   Session, 2 rails     293      113     114     140
    native   Session, 1 rail      220      86      87      115
    native   point, 4 B           1 357    999     922     1 075
    native   point, 64 KB         3 402    2 928   2 637   2 860
    heap     Session, 2 rails     288      108     109     135
    heap     Session, 1 rail      215      81      82      110
    heap     point, 4 B           1 588    1 233   1 241   1 400
    heap     point, 64 KB         5 003    4 526   4 524   4 750

"before" registered every instrument through ``counter()`` /
``histogram()`` (label sort, edge check and registry walk each), entered
``Histogram.observe`` four times per commit, a ``Session`` method per
park and per wake-up, and ``Process._arm`` per ``AllOf`` child; "now"
resumes a native process in C.  And
an eager flood's ``run_until_idle`` enters the metrics modules
(``obs/metrics.py``, ``obs/instruments.py``) only to fold a batch of
:data:`~repro.obs.instruments.FOLD_AT` observations and to read ``count``
when it publishes — never per commit.
"""

import collections
import functools
import os
import random
from collections import deque

import pytest

from repro import (
    MYRI_10G, Session, paper_platform, run_pingpong, sample_rails, single_rail_platform,
)
from repro.obs.instruments import FOLD_AT, Histogram
from repro.sim.backend import available_backends
from tests.callcount import count_calls

CEILING = {"native": 30.0, "heap": 38.0}
MESSAGES = 2_000
WINDOW = 32
TAG = 11
KB = 1024

RDV_CEILING = {"native": 168.0, "heap": 375.0}
RDV_MESSAGES = 1_000
RDV_WINDOW = 8

#: ``Session()`` calls: (two rails, aggreg_multirail), (one rail, aggreg)
SESSION_CEILING = {"native": (140, 115), "heap": (135, 110)}
#: figure-point calls at 4 B and 64 KB
POINT_CEILING = {"native": (1075, 2860), "heap": (1400, 4750)}
POINT_SIZES = (4, 64 * KB)
METRICS_FILES = (os.path.join("obs", "metrics.py"), os.path.join("obs", "instruments.py"))


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
    by_layer, result = count_calls(run)
    return sum(by_layer.values()), result


def layer_calls_per_message(kind, backend):
    """Python ``call`` events per message of one ``"eager"`` or ``"rdv"``
    flood, by layer (``tests/callcount.py``)."""
    if kind == "eager":
        sizes = random.Random(7).choices((8, 64, 512, 2048, 4096), k=MESSAGES)
        session = Session(paper_platform(), strategy="aggreg_multirail", backend=backend)
        window = WINDOW
    else:
        sizes = random.Random(7).choices((64 * KB, 256 * KB, 1024 * KB), k=RDV_MESSAGES)
        session = Session(
            paper_platform(), strategy="split_balance", samples=_samples(), backend=backend
        )
        window = RDV_WINDOW
    by_layer, recvs = count_calls(_flood(session, sizes, window))
    assert all(r.done and r.payload.size == n for r, n in zip(recvs, sizes))
    if kind == "eager":  # the eager regime, aggregated
        assert session.counters(0)["aggregated_packets"] > 0
    else:  # one RDV_REQ each
        assert session.counters(0)["packets_committed"] == RDV_MESSAGES
    return collections.Counter({name: n / len(sizes) for name, n in by_layer.items()})


@pytest.mark.parametrize("backend", available_backends())
def test_an_eager_message_stays_under_its_call_budget(backend):
    by_layer = layer_calls_per_message("eager", backend)
    per_message = sum(by_layer.values())
    assert per_message > 10, "the profiler did not see the flood"
    assert per_message <= CEILING[backend], (
        f"{per_message:.2f} Python calls per eager message on {backend}"
        f" (ceiling {CEILING[backend]})"
    )
    # one post_recv and one arrive a message; the first post fixes the tag's mode
    assert by_layer["core.matching"] == pytest.approx(2 + 1 / MESSAGES)


@pytest.mark.parametrize("backend", available_backends())
def test_a_rendezvous_message_stays_under_its_call_budget(backend):
    by_layer = layer_calls_per_message("rdv", backend)
    per_message = sum(by_layer.values())
    assert per_message > 100, "the profiler did not see the flood"
    assert per_message <= RDV_CEILING[backend], (
        f"{per_message:.2f} Python calls per rendezvous message on {backend}"
        f" (ceiling {RDV_CEILING[backend]})"
    )
    assert by_layer["core.matching"] == pytest.approx(2 + 1 / RDV_MESSAGES)


def _session_calls(backend):
    """Calls of building each of the two sessions, after a first one."""
    counted = []
    for spec, strategy in (
        (paper_platform(), "aggreg_multirail"),
        (single_rail_platform(MYRI_10G), "aggreg"),
    ):
        Session(spec, strategy=strategy, backend=backend)
        calls, _ = _calls(lambda: Session(spec, strategy=strategy, backend=backend))
        counted.append(calls)
    return counted


def _point_calls(backend, size):
    """Calls of one figure point: a fresh session and its ping-pong."""
    spec = paper_platform()

    def point():
        session = Session(spec, strategy="aggreg_multirail", backend=backend)
        return run_pingpong(session, size, segments=2, reps=3, warmup=1)

    point()
    calls, result = _calls(point)
    assert result.one_way_us > 0
    return calls


@pytest.mark.parametrize("backend", available_backends())
def test_a_session_build_stays_under_its_call_budget(backend):
    for calls, ceiling, what in zip(
        _session_calls(backend), SESSION_CEILING[backend], ("two-rail", "one-rail")
    ):
        assert calls > 50, "the profiler did not see the build"
        assert calls <= ceiling, (
            f"{calls} Python calls to build a {what} Session on {backend}"
            f" (ceiling {ceiling})"
        )


@pytest.mark.parametrize("backend", available_backends())
def test_a_figure_point_stays_under_its_call_budget(backend):
    for size, ceiling in zip(POINT_SIZES, POINT_CEILING[backend]):
        calls = _point_calls(backend, size)
        assert calls > 500, "the profiler did not see the point"
        assert calls <= ceiling, (
            f"{calls} Python calls for a {size} B figure point on {backend}"
            f" (ceiling {ceiling})"
        )


@pytest.mark.parametrize("backend", available_backends())
def test_an_eager_flood_enters_the_metrics_module_per_batch_only(backend):
    """No metrics-module frame per commit: the pump appends to each
    histogram's batch itself, and the run enters the module only to fold
    a full batch, and to read each rail's commit count when it publishes."""
    sizes = random.Random(7).choices((8, 64, 512, 2048, 4096), k=MESSAGES)
    session = Session(paper_platform(), strategy="aggreg_multirail", backend=backend)
    frames, _ = count_calls(
        _flood(session, sizes, WINDOW),
        lambda code: code.co_name if code.co_filename.endswith(METRICS_FILES) else None,
    )
    frames.pop(None, None)
    hists = [inst for inst in session.metrics if isinstance(inst, Histogram)]
    observations = sum(h.count for h in hists)
    commits = sum(session.counters(n)["packets_committed"] for n in (0, 1))
    assert commits > 100 and observations > 3 * commits
    assert set(frames) <= {"fold", "count"}, frames
    assert frames["count"] == len(session.spec.rails)  # sync_kernel_metrics
    assert frames["fold"] <= observations // FOLD_AT + len(hists), frames
