"""End-to-end data-integrity tests: every byte arrives, in channel order,
whatever the strategy did (aggregate, balance, split, reorder rails)."""

import zlib

import pytest

from repro import Session, available_strategies
from repro.util.units import KB, MB

STRATEGIES = ["single_rail", "aggreg", "greedy", "aggreg_multirail", "split_balance"]


def patterned(size, seed=0):
    """Deterministic patterned bytes (cheap, position-sensitive)."""
    block = bytes((i * 131 + seed * 17) % 256 for i in range(997))
    reps = size // len(block) + 1
    return (block * reps)[:size]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("size", [1, 100, 8 * KB, 16 * KB + 1, 100 * KB, 2 * MB])
def test_single_segment_roundtrip(plat2, strategy, size):
    session = Session(plat2, strategy=strategy)
    data = patterned(size)
    recv = session.interface(1).irecv(0, 1)
    session.interface(0).isend(1, 1, data)
    session.run_until_idle()
    assert recv.done
    assert recv.payload.size == size
    assert zlib.crc32(recv.data) == zlib.crc32(data)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_many_segments_stay_ordered(plat2, strategy):
    session = Session(plat2, strategy=strategy)
    messages = [patterned(s, seed=i) for i, s in enumerate([10, 5000, 40_000, 3, 120_000, 17])]
    recvs = [session.interface(1).irecv(0, 2) for _ in messages]
    for m in messages:
        session.interface(0).isend(1, 2, m)
    session.run_until_idle()
    assert [r.data for r in recvs] == messages


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_recv_posted_after_arrival(plat2, strategy):
    """Unexpected-queue path for both eager and rendezvous."""
    session = Session(plat2, strategy=strategy)
    small, large = patterned(64), patterned(200 * KB, seed=9)
    session.interface(0).isend(1, 3, small)
    session.interface(0).isend(1, 3, large)
    session.run_until_idle()  # both arrive / park before any recv exists
    r1 = session.interface(1).irecv(0, 3)
    r2 = session.interface(1).irecv(0, 3)
    session.run_until_idle()
    assert r1.data == small
    assert r2.data == large


@pytest.mark.parametrize("strategy", ["greedy", "split_balance"])
def test_interleaved_tags_and_directions(plat2, strategy):
    session = Session(plat2, strategy=strategy)
    a, b = session.interface(0), session.interface(1)
    a_msgs = {t: patterned(1000 * (t + 1), seed=t) for t in range(4)}
    b_msgs = {t: patterned(30_000 * (t + 1), seed=10 + t) for t in range(4)}
    a_recvs = {t: a.irecv(1, t) for t in range(4)}
    b_recvs = {t: b.irecv(0, t) for t in range(4)}
    for t in (2, 0, 3, 1):  # submission order shuffled across tags
        a.isend(1, t, a_msgs[t])
        b.isend(0, t, b_msgs[t])
    session.run_until_idle()
    for t in range(4):
        assert b_recvs[t].data == a_msgs[t]
        assert a_recvs[t].data == b_msgs[t]


def test_split_chunk_reassembly_bytes_exact(plat2, samples):
    """A stripped transfer crosses two rails; every offset must land."""
    session = Session(plat2, strategy="split_balance", samples=samples)
    data = patterned(3 * MB, seed=42)
    recv = session.interface(1).irecv(0, 1)
    session.interface(0).isend(1, 1, data)
    session.run_until_idle()
    assert session.engine(0).rdv.split_count == 1
    assert recv.data == data


def test_every_registered_strategy_covered():
    """Keep STRATEGIES in sync with the built-in registry.

    Containment (not equality): other tests and the custom-strategy
    example legitimately register additional strategies at runtime.
    """
    assert set(STRATEGIES) <= set(available_strategies())
    builtin = {"single_rail", "aggreg", "greedy", "aggreg_multirail", "split_balance"}
    assert builtin <= set(STRATEGIES)
