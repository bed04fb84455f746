"""Every collective: values AND message counts, every backend.

A collective only earns its place if it is exact: every rank must return
what the algorithm defines, and the wire traffic must match the
closed-form message count of the algorithm.  :data:`LAWS` holds both for
every collective — P⌈log₂P⌉ for the dissemination barrier, P−1 for the
trees and the linear ones, 2(P−1) for allreduce, P(P−1) for alltoall,
2L(P−1) for an L-lane allreduce, L·P·⌈log₂P⌉ for the lane barriers,
2(P−1) for the combining tree — and every engine's matching table must
end drained.  Checked at P = 2..17, 33 and 64 on every available kernel
backend.
"""

import math

import pytest

from repro.core.packet import Payload
from repro.core.session import Session
from repro.hardware.presets import paper_platform
from repro.mpi.collectives import (
    allreduce,
    alltoall,
    barrier,
    bcast,
    decode_vector,
    encode_vector,
    gather,
    multilane_allreduce,
    multilane_barrier,
    nic_barrier,
    reduce,
    scan,
    scatter,
)
from repro.mpi.comm import Communicator
from repro.sim.backend import available_backends
from repro.util.errors import ApiError

BACKENDS = available_backends()
SIZES = [*range(2, 18), 33, 64]
VEC_LEN = 7  # odd on purpose: unequal lane chunks


def _rounds(p):
    return math.ceil(math.log2(p))


def _plain(value):
    """A rank's result with payloads read as their bytes."""
    if isinstance(value, Payload):
        return value.data
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _vec(rank):
    """Integer-valued doubles: every sum is exact whatever its order."""
    return [float(rank + i) for i in range(VEC_LEN)]


def _root_only(rank, value):
    return value if rank == 0 else None


#: collective -> (what rank ``ep`` runs, what rank ``r`` of ``p`` returns,
#: closed-form ``segments_submitted`` at ``p`` >= 2)
LAWS = {
    "barrier": (barrier, lambda r, p: None, lambda p: p * _rounds(p)),
    "bcast": (
        lambda ep: bcast(ep, b"bcast" if ep.rank == 0 else None),
        lambda r, p: b"bcast", lambda p: p - 1,
    ),
    "reduce": (
        lambda ep: reduce(ep, float(ep.rank)),
        lambda r, p: _root_only(r, float(sum(range(p)))), lambda p: p - 1,
    ),
    "gather": (
        lambda ep: gather(ep, bytes([ep.rank])),
        lambda r, p: _root_only(r, {q: bytes([q]) for q in range(p)}),
        lambda p: p - 1,
    ),
    "scatter": (
        lambda ep: scatter(
            ep, [bytes([q]) * 2 for q in range(ep.size)] if ep.rank == 0 else None
        ),
        lambda r, p: bytes([r]) * 2, lambda p: p - 1,
    ),
    "scan": (
        lambda ep: scan(ep, float(ep.rank)),
        lambda r, p: float(r * (r + 1) // 2), lambda p: p - 1,
    ),
    "allreduce": (
        lambda ep: allreduce(ep, float(ep.rank)),
        lambda r, p: float(sum(range(p))), lambda p: 2 * (p - 1),
    ),
    "alltoall": (
        lambda ep: alltoall(ep, [bytes([ep.rank, q]) for q in range(ep.size)]),
        lambda r, p: {q: bytes([q, r]) for q in range(p) if q != r},
        lambda p: p * (p - 1),
    ),
    **{
        f"multilane_allreduce/{lanes}": (
            lambda ep, lanes=lanes: multilane_allreduce(ep, _vec(ep.rank), lanes=lanes),
            lambda r, p: [float(sum(range(p)) + p * i) for i in range(VEC_LEN)],
            lambda p, lanes=lanes: 2 * lanes * (p - 1),
        )
        for lanes in (1, 2, 3)
    },
    **{
        f"multilane_barrier/{lanes}": (
            lambda ep, lanes=lanes: multilane_barrier(ep, lanes=lanes),
            lambda r, p: None, lambda p, lanes=lanes: lanes * p * _rounds(p),
        )
        for lanes in (1, 2, 4)
    },
    **{
        f"nic_barrier/{arity}": (
            lambda ep, arity=arity: nic_barrier(ep, arity=arity),
            lambda r, p: None, lambda p: 2 * (p - 1),
        )
        for arity in (2, 3, 4)
    },
}


def _run(session, comm, fn):
    results = {}

    def wrapper(rank):
        results[rank] = yield from fn(comm.endpoint(rank))

    procs = [session.spawn(wrapper(r), name=f"rank{r}") for r in range(comm.size)]
    session.run_until_idle()
    assert all(p.done for p in procs), "collective deadlocked"
    return results


def _session(n, backend):
    return Session(
        paper_platform(n_nodes=max(n, 2)), strategy="aggreg_multirail",
        backend=backend,
    )


def _obeys(name, n, backend):
    """Collective ``name`` at P = ``n``: every rank returns what it must,
    none before its first message could have moved, the wire carries the
    closed-form count and every matching table ends drained."""
    body, want, segments = LAWS[name]
    session = _session(n, backend)
    comm = Communicator(session)
    released = {}

    def timed(ep):
        out = yield from body(ep)
        released[ep.rank] = session.sim.now
        return out

    results = _run(session, comm, timed)
    assert {r: _plain(v) for r, v in results.items()} == {
        r: want(r, n) for r in range(n)
    }, name
    assert all(t > 0.0 for t in released.values()), name
    assert session.counters()["segments_submitted"] == segments(n), name
    assert all(
        e.matching.posted_count == e.matching.unexpected_count == 0
        for e in session.engines.built()
    ), name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", SIZES)
def test_multilane_allreduce_values_and_messages(n, backend):
    """The reduce shape: scalar reduce and allreduce are its one-element,
    one-lane case."""
    for name in ("reduce", "allreduce", *(f"multilane_allreduce/{k}" for k in (1, 2, 3))):
        _obeys(name, n, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", SIZES)
def test_multilane_barrier_releases_and_messages(n, backend):
    """The dissemination ring: barrier is its one-lane case."""
    for name in ("barrier", *(f"multilane_barrier/{k}" for k in (1, 2, 4))):
        _obeys(name, n, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_nic_barrier_releases_and_messages(n, backend, arity):
    _obeys(f"nic_barrier/{arity}", n, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", SIZES)
def test_tree_and_linear_collectives_values_and_messages(n, backend):
    for name in ("bcast", "gather", "scatter", "scan", "alltoall"):
        _obeys(name, n, backend)


def test_backends_bit_identical_at_scale():
    """The same collectives execute the identical event schedule on every
    backend — per-rank values, simulated time, and event count: the P=64
    multi-lane allreduce, and every scalar collective at P = 5 and 64."""
    runs = [(64, lambda ep: multilane_allreduce(ep, [float(ep.rank)] * 8))]
    runs += [
        (n, LAWS[name][0])
        for n in (5, 64)
        for name in ("barrier", "bcast", "reduce", "gather", "scatter", "scan",
                     "allreduce", "alltoall")
    ]
    digests = {}
    for backend in BACKENDS:
        digests[backend] = []
        for n, fn in runs:
            session = _session(n, backend)
            results = _run(session, Communicator(session), fn)
            digests[backend].append((
                session.sim.now,
                session.sim.events_executed,
                [repr(_plain(results[r])) for r in range(n)],
            ))
    reference = digests.pop(BACKENDS[0])
    for backend, got in digests.items():
        assert got == reference, backend


def test_multilane_allreduce_custom_op_and_single_lane():
    session = _session(5, None)
    comm = Communicator(session)
    results = _run(
        session, comm,
        lambda ep: multilane_allreduce(
            ep, [float(ep.rank + 1)] * 4, op=max, lanes=1
        ),
    )
    assert all(out == [5.0] * 4 for out in results.values())


def test_vector_codec_roundtrip_and_validation():
    from repro.core.packet import Payload

    vec = [1.5, -2.25, 0.0]
    assert decode_vector(Payload.of(encode_vector(vec))) == vec
    with pytest.raises(ApiError):
        decode_vector(Payload.of(b"12345"))  # not a multiple of 8


def test_empty_vector_rejected():
    session = _session(2, None)
    comm = Communicator(session)
    with pytest.raises(ApiError):
        _run(session, comm, lambda ep: multilane_allreduce(ep, []))


def test_bad_nic_arity_rejected():
    session = _session(2, None)
    comm = Communicator(session)
    with pytest.raises(ApiError):
        _run(session, comm, lambda ep: nic_barrier(ep, arity=1))
