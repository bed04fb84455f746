"""Behaviour tests for communicators and endpoints."""

import pytest

from repro import Session, paper_platform
from repro.mpi import Communicator
from repro.mpi.comm import MAX_USER_TAG
from repro.util.errors import ApiError


@pytest.fixture()
def session():
    return Session(paper_platform(n_nodes=3), strategy="aggreg_multirail")


def run_procs(session, *gens):
    procs = [session.spawn(g) for g in gens]
    session.run_until_idle()
    assert all(p.done for p in procs)
    return procs


def test_size_matches_nodes(session):
    assert Communicator(session).size == 3


def test_endpoint_cached_and_validated(session):
    comm = Communicator(session)
    assert comm.endpoint(1) is comm.endpoint(1)
    with pytest.raises(ApiError):
        comm.endpoint(3)
    with pytest.raises(ApiError):
        comm.endpoint(-1)


def test_blocking_send_recv(session):
    """A yielded request resumes its process when the request completes."""
    comm = Communicator(session)
    got = {}

    def sender():
        req = comm.endpoint(0).isend(b"payload", dest=1, tag=4)
        yield req
        got["sent"] = (req.done, session.sim.now == req.completed_at)

    def receiver():
        req = comm.endpoint(1).irecv(source=0, tag=4)
        yield req
        got["data"] = req.payload.data
        got["received"] = (req.done, session.sim.now == req.completed_at)

    run_procs(session, sender(), receiver())
    assert got == {"data": b"payload", "sent": (True, True), "received": (True, True)}


def test_communicators_isolate_tags(session):
    """Same user tag on two communicators must not cross-match."""
    comm_a = Communicator(session, name="A")
    comm_b = Communicator(session, name="B")
    got = {}

    def sender():
        yield comm_a.endpoint(0).isend(b"from A", 1, tag=7)
        yield comm_b.endpoint(0).isend(b"from B", 1, tag=7)

    def receiver():
        # post B's receive first and block on it: it must get B's message,
        # not A's, which arrives first and waits unexpected
        req_b = comm_b.endpoint(1).irecv(0, tag=7)
        yield req_b
        req_a = comm_a.endpoint(1).irecv(0, tag=7)
        yield req_a
        got["a"], got["b"] = req_a.payload.data, req_b.payload.data

    run_procs(session, sender(), receiver())
    assert got == {"a": b"from A", "b": b"from B"}


def test_dup_gets_fresh_tag_space(session):
    comm = Communicator(session)
    dup = comm.dup()
    assert dup.comm_id != comm.comm_id
    assert dup.size == comm.size


def test_tag_out_of_range(session):
    comm = Communicator(session)
    with pytest.raises(ApiError):
        comm.endpoint(0).isend(b"x", 1, tag=MAX_USER_TAG + 1)
    with pytest.raises(ApiError):
        comm.endpoint(0).isend(b"x", 1, tag=-1)


def test_self_send_rejected(session):
    """A rank is its node: the engine's refusal is the one raised."""
    comm = Communicator(session)
    with pytest.raises(ApiError, match="node 1: send to self is not supported"):
        comm.endpoint(1).isend(b"x", 1)
    with pytest.raises(ApiError, match="node 1: receive from self is not supported"):
        comm.endpoint(1).irecv(1)


def test_float_rank_refused_at_the_call(session):
    """``Communicator.endpoint(1.0)`` raised a raw ``TypeError``."""
    comm = Communicator(session)
    for rank in (1.0, True):
        with pytest.raises(ApiError, match="rank must be an int") as info:
            comm.endpoint(rank)
        assert "\n" not in str(info.value)


def test_float_tag_refused_at_the_call(session):
    """``ep.isend(8, 1, tag=1.5)`` raised a raw ``TypeError``; ``tag=1.0``
    would have reused tag 1's channel once that one was cached."""
    comm = Communicator(session)
    ep = comm.endpoint(0)
    ep.irecv(1, tag=1)  # caches user tag 1
    for tag in (1.5, 1.0, "1"):
        with pytest.raises(ApiError, match="tag must be an int") as info:
            ep.isend(8, 1, tag=tag)
        assert "\n" not in str(info.value)
        with pytest.raises(ApiError, match="tag must be an int"):
            ep.irecv(1, tag=tag)
