"""Live heap and the cyclic collector.

The rule (DESIGN.md §6 "Live heap and the collector"): a completed message
costs the heap the handle its caller keeps, nothing else — the same bytes
on every event core — and the message path makes no reference cycles, so
whatever the collector walks it walks for nothing.  Every check is a
deterministic count (objects, ``tracemalloc`` bytes), not a timing.
"""

import gc
import sys
import tracemalloc
from collections import deque

import pytest

from repro import Session, paper_platform
from repro.bench.flood import run_flood
from repro.core.matching import MatchingTable
from repro.core.packet import Payload
from repro.core.request import RecvRequest
from repro.hardware.topology import rail_optimized_platform
from repro.mpi.collectives import multilane_allreduce
from repro.mpi.comm import Communicator
from repro.sim import Simulator
from repro.sim.backend import available_backends

TAG = 11
EAGER_SIZES = (8, 64, 512, 2048, 4096)
RDV_SIZES = (64 * 1024, 256 * 1024)


def _flood(session, sizes, window, keep=True):
    """Spawn a flood of ``sizes`` from node 0 to node 1 that waits on its
    oldest send once ``window`` are in flight; the caller runs it.

    ``keep``: every receive is pre-posted and every request is kept (in the
    returned ``sends`` / ``recvs``), as hostbench's floods do.  Otherwise
    each receive is posted once the last one is consumed and no handle
    outlives its wait; ``got`` then sums the delivered bytes."""
    a, b = session.interface(0), session.interface(1)
    recvs = [b.irecv(0, TAG) for _ in sizes] if keep else None
    sends = [] if keep else None
    got = [0]

    def sender():
        outstanding = deque()
        for size in sizes:
            while len(outstanding) >= window:
                oldest = outstanding.popleft()
                if not oldest.done:
                    yield oldest.completion
            outstanding.append(a.isend(1, TAG, size))
            if keep:
                sends.append(outstanding[-1])
        for req in outstanding:
            yield req.completion

    def drain():
        for i in range(len(sizes)):
            req = recvs[i] if keep else b.irecv(0, TAG)
            yield req.completion
            got[0] += req.payload.size

    procs = [session.spawn(sender()), session.spawn(drain())]
    return procs, sends, recvs, got


def test_kept_requests_are_all_a_flood_leaves_on_the_heap(plat2):
    """20 000 eager messages, window 32, waiting on the oldest send, every
    request kept by the caller: two requests per message stay, and next to
    nothing else (seven tracked objects per message before requests became
    their own waitable and virtual payloads were shared)."""
    count = 20_000
    session = Session(plat2, strategy="aggreg_multirail")
    sizes = [EAGER_SIZES[i % 5] for i in range(count)]
    gc.collect()
    before = len(gc.get_objects())
    procs, sends, recvs, _ = _flood(session, sizes, 32)
    session.run_until_idle()
    assert all(p.done for p in procs)
    assert all(r.done and r.payload.size == n for r, n in zip(recvs, sizes))
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown <= 3 * count + 2_000, f"{grown / count:.2f} tracked objects per message"
    assert all(r._waiter is None for r in sends + recvs)


def _traced_flood(backend, samples, sizes, window, strategy, keep=True):
    """(bytes still held per message after the run, peak bytes during it),
    both over what the built session held before it started."""
    session = Session(paper_platform(), strategy=strategy, samples=samples, backend=backend)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        procs, _sends, _recvs, got = _flood(session, sizes, window, keep)
        session.run_until_idle()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p.done for p in procs)
    assert keep or got[0] == sum(sizes)
    return (held - before) / len(sizes), peak - before


#: tracemalloc bytes a kept message holds (two requests, their stamps, the
#: caller's list slots), 3.11: eager 342.1 B, rendezvous 429.7 B on both
#: cores.  The native core once made a float per clock read, so each kept
#: message also held four private timestamps: 433.3 and 479.1 B.
KEPT_BYTES_CEILING = {"eager": 360.0, "rdv": 455.0}


@pytest.mark.parametrize(
    "kind, sizes, window, strategy",
    [
        ("eager", [EAGER_SIZES[i % 5] for i in range(20_000)], 32, "aggreg_multirail"),
        ("rdv", [RDV_SIZES[i % 2] for i in range(1_000)], 8, "split_balance"),
    ],
)
def test_a_kept_message_costs_the_same_bytes_on_every_core(
    kind, sizes, window, strategy, samples
):
    """What a caller keeps of a message is the same on both cores: the C
    core hands out one float per instant, as the heap core's clock does,
    so requests stamped at one instant share it."""
    per_message = {
        backend: _traced_flood(backend, samples, sizes, window, strategy)[0]
        for backend in available_backends()  # heap first; native when it loads
    }
    heap = per_message.pop("heap")
    assert heap <= KEPT_BYTES_CEILING[kind], f"heap: {heap:.1f} B per kept message"
    for backend, got in per_message.items():
        assert got <= heap * 1.02, f"{backend}: {got:.1f} B vs heap {heap:.1f} B"


@pytest.mark.parametrize("backend", available_backends())
def test_a_flood_that_drops_its_handles_peaks_at_its_window(backend, samples):
    """Without kept handles a flood is O(window): twice the messages, the
    same peak (about 35 KB on 3.11 at either length, on both cores)."""
    sizes = [EAGER_SIZES[i % 5] for i in range(4_000)]
    _, peak = _traced_flood(backend, samples, sizes, 32, "aggreg_multirail", keep=False)
    _, peak2 = _traced_flood(backend, samples, sizes * 2, 32, "aggreg_multirail", keep=False)
    assert peak2 <= peak * 1.05, f"peak {peak} B at N, {peak2} B at 2N"


def _matching_table_bytes(n):
    """``(bytes per waiting receive, bytes kept after all matched)`` of a
    matching table with ``n`` receives posted on one channel, then ``n``
    in-order arrivals: what the table itself allocates, without the
    requests (made before the count) and their seq ints."""
    sim = Simulator()
    table = MatchingTable(2)
    reqs = [RecvRequest(sim, 0, TAG, -1) for _ in range(n)]
    seqs = list(range(n))  # the sender's ints, which the requests keep
    payload = Payload.virtual(8)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for req, seq in zip(reqs, seqs):
            table.post_recv(0, TAG, req)
            req.seq = seq  # an equal int, made before the count
        waiting = tracemalloc.get_traced_memory()[0] - before
        for seq in seqs:
            table.arrive(0, TAG, seq, "eager", payload)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.posted_count == 0 and all(r.seq is s for r, s in zip(reqs, seqs))
    return waiting / n, kept


def test_a_waiting_receive_costs_the_table_one_slot():
    """Memory per message is O(window): a waiting receive is one slot of
    its channel's queue (8.4 B at N = 16 000 on 3.11, the deque's blocks
    included), and a matched one leaves nothing (984 B at either N).  A
    table keyed by ``(peer, tag, seq)`` held 132 B per waiting receive
    (the tuple, the seq int it kept and its dict slot) and, after the
    matches, a dict sized for N: 102 KB at N = 1 000, 718 KB at 16 000."""
    per_receive, kept = zip(*(_matching_table_bytes(n) for n in (1_000, 16_000)))
    assert max(per_receive) <= 16.0, f"{per_receive} B per waiting receive"
    assert kept[0] == kept[1], f"{kept} B kept after 1 000 and 16 000 matches"


class _Reclaimed:
    """Sums what the collector frees while the block runs (``gc.callbacks``),
    automatic collections and a final full one alike."""

    def __enter__(self):
        gc.collect()  # garbage older than the block is not the block's
        self.objects = self.collections = 0
        gc.callbacks.append(self._probe)
        return self

    def _probe(self, phase, info):
        if phase == "stop":
            self.objects += info["collected"]
            self.collections += 1

    def __exit__(self, *exc):
        gc.collect()
        gc.callbacks.remove(self._probe)


def _eager_flood(backend, samples):
    session = Session(paper_platform(), strategy="aggreg_multirail", backend=backend)
    return session, lambda: run_flood(session, 512, count=4000, window=32)


def _rdv_flood(backend, samples):
    session = Session(
        paper_platform(), strategy="split_balance", samples=samples, backend=backend
    )
    return session, lambda: run_flood(session, 256 * 1024, count=300, window=8)


def _allreduce_p16(backend, samples):
    session = Session(
        paper_platform(n_nodes=16), strategy="aggreg_multirail", backend=backend
    )
    comm = Communicator(session)

    def run():
        for _ in range(8):
            procs = [
                session.spawn(multilane_allreduce(comm.endpoint(r), [float(r)] * 8))
                for r in range(16)
            ]
            session.run_until_idle()
            assert all(p.done and p.value == [120.0] * 8 for p in procs)

    return session, run


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("workload", [_eager_flood, _rdv_flood, _allreduce_p16])
def test_the_message_path_makes_no_cyclic_garbage(workload, backend, samples):
    """The collector runs as the host configured it and reclaims nothing:
    every object the message path drops is freed by its reference count.
    (What stops a later "cache the bound method on the process" from
    turning each message into a cycle the collector must find.)"""
    session, run = workload(backend, samples)  # kept alive: tear-down is not the path
    with _Reclaimed() as reclaimed:
        run()
    assert reclaimed.collections >= 1
    assert reclaimed.objects == 0
    assert session.sim.events_executed > 0


#: tracked objects a rank holds a quarter and half of the way through a
#: P=256 rail_opt allreduce (``_held_per_rank``).  Before one resume callable
#: per process, a join object per AllOf and requests yielded as they are,
#: the same run held 85.0 / 79.6 (3.11), 78.0 / 73.5 (3.12) and 105.0 / 98.4
#: (3.10, where every generator frame is an object of its own); after,
#: 65.0 / 62.4, 64.0 / 61.3 and 83.0 / 79.5.
IN_FLIGHT_CEILING = (86.0, 82.0) if sys.version_info < (3, 11) else (68.0, 65.0)


def _held_per_rank(backend):
    """Tracked objects per rank at 1/4 and 1/2 of the run's simulated time."""
    p = 256

    def build():
        session = Session(
            rail_optimized_platform(p), strategy="aggreg_multirail", backend=backend
        )
        comm = Communicator(session)
        procs = [
            session.spawn(multilane_allreduce(comm.endpoint(r), [float(r)] * 8))
            for r in range(p)
        ]
        return session, procs

    session, procs = build()
    session.run_until_idle()
    assert all(proc.done for proc in procs)
    end = session.sim.now
    del session, procs
    gc.collect()
    before = len(gc.get_objects())
    session, procs = build()
    held = []
    for fraction in (0.25, 0.5):
        session.sim.run(until=end * fraction)
        gc.collect()
        held.append((len(gc.get_objects()) - before) / p)
    assert not all(proc.done for proc in procs)
    return held


@pytest.mark.parametrize("backend", available_backends())
def test_a_rank_in_flight_holds_its_frames_and_requests_only(backend):
    """The in-flight rule: a wait allocates nothing the collector has to
    walk beyond the request itself — no bound method, closure, cell or
    per-message generator."""
    quarter, half = _held_per_rank(backend)
    assert quarter <= IN_FLIGHT_CEILING[0], f"{quarter:.1f} tracked objects per rank at 1/4"
    assert half <= IN_FLIGHT_CEILING[1], f"{half:.1f} tracked objects per rank at 1/2"
