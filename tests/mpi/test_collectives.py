"""Behaviour tests for the collective algorithms."""

import pytest

from repro import Session, paper_platform
from repro.mpi import (
    Communicator,
    allreduce,
    barrier,
    bcast,
    gather,
    multilane_barrier,
    nic_barrier,
    reduce,
    scan,
)
from repro.mpi.collectives import decode_value, encode_value
from repro.sim.process import Timeout
from repro.util.errors import ApiError


def make_session(n):
    return Session(paper_platform(n_nodes=n), strategy="aggreg_multirail")


def run_ranks(session, comm, fn):
    results = {}

    def wrapper(rank):
        value = yield from fn(comm.endpoint(rank))
        results[rank] = value

    procs = [session.spawn(wrapper(r), name=f"rank{r}") for r in range(comm.size)]
    session.run_until_idle()
    assert all(p.done for p in procs), "collective deadlocked"
    return results


def test_encode_decode_roundtrip():
    from repro.core.packet import Payload

    assert decode_value(Payload.of(encode_value(3.25))) == 3.25


def test_decode_garbage_rejected():
    from repro.core.packet import Payload

    with pytest.raises(ApiError):
        decode_value(Payload.of(b"short"))
    with pytest.raises(ApiError):
        decode_value(Payload.virtual(8))


#: ranks enter a barrier this many microseconds apart
STAGGER_US = 5.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 64])
def test_barrier_all_ranks_release(n):
    """No rank leaves a barrier before the last rank has entered it (the
    property Yu et al. define a barrier by): rank r enters at r x
    ``STAGGER_US``, so every rank leaves at ``(n - 1) x STAGGER_US`` or
    later — for each of the three barriers."""
    for algo in (barrier, multilane_barrier, nic_barrier):
        session = make_session(n)
        comm = Communicator(session)

        def staggered(ep, algo=algo, session=session):
            yield Timeout(ep.rank * STAGGER_US)
            yield from algo(ep)
            return session.sim.now

        release_times = run_ranks(session, comm, staggered)
        assert sorted(release_times) == list(range(n))
        first_out = min(release_times.values())
        assert first_out >= (n - 1) * STAGGER_US, (algo.__name__, first_out)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
@pytest.mark.parametrize("root", [0, 1])
def test_bcast_delivers_to_all(n, root):
    session = make_session(n)
    comm = Communicator(session)

    def fn(ep):
        data = b"broadcast!" if ep.rank == root else None
        payload = yield from bcast(ep, data, root=root)
        return payload.data

    results = run_ranks(session, comm, fn)
    assert all(v == b"broadcast!" for v in results.values())


def test_bcast_root_without_data_rejected():
    session = make_session(2)
    comm = Communicator(session)

    def fn(ep):
        payload = yield from bcast(ep, None, root=0)
        return payload

    with pytest.raises(ApiError):
        run_ranks(session, comm, fn)


@pytest.mark.parametrize("n", [2, 4])
def test_gather_collects_all(n):
    session = make_session(n)
    comm = Communicator(session)

    def fn(ep):
        out = yield from gather(ep, bytes([ep.rank]) * 3, root=0)
        return None if out is None else {r: p.data for r, p in out.items()}

    results = run_ranks(session, comm, fn)
    assert results[0] == {r: bytes([r]) * 3 for r in range(n)}
    assert all(results[r] is None for r in range(1, n))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_reduce_sum(n):
    session = make_session(n)
    comm = Communicator(session)
    results = run_ranks(session, comm, lambda ep: reduce(ep, float(ep.rank + 1)))
    assert results[0] == pytest.approx(n * (n + 1) / 2)
    assert all(results[r] is None for r in range(1, n))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_allreduce_everyone_gets_result(n):
    session = make_session(n)
    comm = Communicator(session)
    results = run_ranks(session, comm, lambda ep: allreduce(ep, float(ep.rank)))
    expected = sum(range(n))
    assert all(v == pytest.approx(expected) for v in results.values())


def test_allreduce_max():
    session = make_session(4)
    comm = Communicator(session)
    results = run_ranks(
        session, comm, lambda ep: allreduce(ep, float(ep.rank * 10), op=max)
    )
    assert all(v == pytest.approx(30.0) for v in results.values())


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("root", [0, 1])
def test_scatter(n, root):
    from repro.mpi import scatter

    session = make_session(n)
    comm = Communicator(session)

    def fn(ep):
        data = [bytes([r]) * 4 for r in range(n)] if ep.rank == root else None
        payload = yield from scatter(ep, data, root=root)
        return payload.data

    results = run_ranks(session, comm, fn)
    assert results == {r: bytes([r]) * 4 for r in range(n)}


def test_scatter_root_wrong_length():
    from repro.mpi import scatter

    session = make_session(2)
    comm = Communicator(session)

    def fn(ep):
        data = [b"x"] if ep.rank == 0 else None
        if ep.rank == 0:
            payload = yield from scatter(ep, data, root=0)
        else:
            return None
        return payload

    with pytest.raises(ApiError):
        run_ranks(session, comm, fn)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_alltoall(n):
    from repro.mpi import alltoall

    session = make_session(n)
    comm = Communicator(session)

    def fn(ep):
        data = [bytes([ep.rank, peer]) * 8 for peer in range(n)]
        got = yield from alltoall(ep, data)
        return {peer: p.data for peer, p in got.items()}

    results = run_ranks(session, comm, fn)
    for rank in range(n):
        for peer in range(n):
            if peer != rank:
                assert results[rank][peer] == bytes([peer, rank]) * 8


def test_alltoall_wrong_length():
    from repro.mpi import alltoall

    session = make_session(2)
    comm = Communicator(session)

    def fn(ep):
        got = yield from alltoall(ep, [b"x"])
        return got

    with pytest.raises(ApiError):
        run_ranks(session, comm, fn)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_scan_prefix_sums(n):
    session = make_session(n)
    comm = Communicator(session)
    results = run_ranks(session, comm, lambda ep: scan(ep, float(ep.rank + 1)))
    assert results == {r: (r + 1) * (r + 2) / 2 for r in range(n)}


def test_scan_full_comm():
    session = make_session(4)
    comm = Communicator(session)
    results = run_ranks(session, comm, lambda ep: scan(ep, float(ep.rank)))
    assert results == {0: 0.0, 1: 1.0, 2: 3.0, 3: 6.0}


def test_scan_with_max_op():
    session = make_session(3)
    comm = Communicator(session)
    values = {0: 5.0, 1: 2.0, 2: 9.0}
    results = run_ranks(session, comm, lambda ep: scan(ep, values[ep.rank], op=max))
    assert results == {0: 5.0, 1: 5.0, 2: 9.0}
