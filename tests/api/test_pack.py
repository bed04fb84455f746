"""Behaviour tests for incremental pack/unpack message construction."""

import pytest

from repro import Session
from repro.api import Packer, Unpacker
from repro.util.errors import ApiError


@pytest.fixture()
def session(plat2):
    return Session(plat2, strategy="aggreg_multirail")


def test_pack_unpack_roundtrip(session):
    up = Unpacker(session.interface(1), src=0, tag=3)
    parts_in = [up.unpack() for _ in range(3)]
    incoming = up.end()

    pk = Packer(session.interface(0), dst=1, tag=3)
    pk.pack(b"header")
    pk.pack(b"body-bytes")
    pk.pack(b"trailer")
    outgoing = pk.end()

    session.run_until_idle()
    assert outgoing.done and incoming.done
    assert [r.data for r in parts_in] == [b"header", b"body-bytes", b"trailer"]


def test_segments_submitted_immediately(session):
    pk = Packer(session.interface(0), dst=1, tag=1)
    req = pk.pack(b"x")
    # segment already queued in the engine before end()
    assert session.engine(0).counters["segments_submitted"] == 1
    assert not req.done


def test_pack_after_end_rejected(session):
    pk = Packer(session.interface(0), dst=1, tag=1)
    pk.pack(b"x")
    pk.end()
    with pytest.raises(ApiError):
        pk.pack(b"y")


def test_end_twice_rejected(session):
    pk = Packer(session.interface(0), dst=1, tag=1)
    pk.pack(b"x")
    pk.end()
    with pytest.raises(ApiError):
        pk.end()


def test_empty_end_rejected(session):
    with pytest.raises(ApiError):
        Packer(session.interface(0), dst=1, tag=1).end()
    with pytest.raises(ApiError):
        Unpacker(session.interface(1), src=0, tag=1).end()


def test_unpack_after_end_rejected(session):
    up = Unpacker(session.interface(1), src=0, tag=1)
    up.unpack()
    up.end()
    with pytest.raises(ApiError):
        up.unpack()


def test_mixed_sizes_pack(session):
    """A pack mixing small and rendezvous-sized segments."""
    up = Unpacker(session.interface(1), src=0, tag=7)
    r_small, r_big = up.unpack(), up.unpack()
    up.end()
    pk = Packer(session.interface(0), dst=1, tag=7)
    pk.pack(b"tiny")
    pk.pack(b"B" * 200_000)
    pk.end()
    session.run_until_idle()
    assert r_small.data == b"tiny"
    assert r_big.data == b"B" * 200_000
