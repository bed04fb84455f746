"""Unit tests for ANY_SOURCE wildcard matching."""

import pytest

from repro.core.matching import ANY_SOURCE, MatchingTable
from repro.core.packet import Payload, RdvReq
from repro.core.request import RecvRequest
from repro.sim import Simulator
from repro.util.errors import MatchingError

#: peers are node ids 0 .. N_NODES - 1
N_NODES = 4


@pytest.fixture()
def sim():
    return Simulator()


def any_req(sim, tag=1):
    return RecvRequest(sim, ANY_SOURCE, tag, seq=-1)


def rdv(peer_seq=0, tag=1, req_id=1, length=50_000):
    return RdvReq(req_id=req_id, tag=tag, seq=peer_seq, total_length=length, chunks=((0, 0, length),))


class TestWildcardBasics:
    def test_post_then_arrive(self, sim):
        table = MatchingTable(N_NODES)
        r = any_req(sim)
        assert table.post_recv(ANY_SOURCE, 1, r).kind == "posted"
        matches = table.arrive(peer=3, tag=1, seq=0, kind="eager", payload=Payload.of(b"x"))
        [(request, payload, rdv_req)] = matches  # a plain (request, payload, rdv) tuple
        assert request is r and payload.data == b"x" and rdv_req is None
        assert r.peer == 3 and r.seq == 0  # source learned at match time

    def test_arrive_then_post(self, sim):
        table = MatchingTable(N_NODES)
        assert table.arrive(2, 1, 0, "eager", payload=Payload.of(b"y")) == []
        outcome = table.post_recv(ANY_SOURCE, 1, any_req(sim))
        assert outcome.kind == "eager" and outcome.payload.data == b"y"

    def test_fifo_across_peers(self, sim):
        table = MatchingTable(N_NODES)
        table.arrive(2, 1, 0, "eager", payload=Payload.of(b"from2"))
        table.arrive(0, 1, 0, "eager", payload=Payload.of(b"from0"))
        first = table.post_recv(ANY_SOURCE, 1, any_req(sim))
        second = table.post_recv(ANY_SOURCE, 1, any_req(sim))
        assert first.payload.data == b"from2"  # arrival order, not peer order
        assert second.payload.data == b"from0"

    def test_wildcard_rdv(self, sim):
        table = MatchingTable(N_NODES)
        r = any_req(sim)
        table.post_recv(ANY_SOURCE, 1, r)
        announced = rdv()
        [(request, payload, rdv_req)] = table.arrive(2, 1, 0, "rdv", rdv=announced)
        assert request is r and payload is None and rdv_req is announced
        assert r.peer == 2  # the source the engine acknowledges


class TestNonOvertakingPerSource:
    def test_out_of_order_arrivals_wait_for_cursor(self, sim):
        """seq 1 arriving first (other rail!) must not match before seq 0."""
        table = MatchingTable(N_NODES)
        r = any_req(sim)
        table.post_recv(ANY_SOURCE, 1, r)
        assert table.arrive(2, 1, 1, "eager", payload=Payload.of(b"second")) == []
        matches = table.arrive(2, 1, 0, "eager", payload=Payload.of(b"first"))
        # the gap-filler releases the chain: seq 0 matches r
        assert len(matches) == 1
        assert matches[0][1].data == b"first"

    def test_chain_release_matches_multiple_wildcards(self, sim):
        table = MatchingTable(N_NODES)
        r0, r1, r2 = (any_req(sim) for _ in range(3))
        for r in (r0, r1, r2):
            table.post_recv(ANY_SOURCE, 1, r)
        table.arrive(2, 1, 2, "eager", payload=Payload.of(b"c"))
        table.arrive(2, 1, 1, "eager", payload=Payload.of(b"b"))
        matches = table.arrive(2, 1, 0, "eager", payload=Payload.of(b"a"))
        assert [payload.data for _, payload, _ in matches] == [b"a", b"b", b"c"]
        assert [request for request, _, _ in matches] == [r0, r1, r2]
        # the channel's stash goes with its last entry
        assert table._stash == {}

    def test_stashed_arrivals_counted_unexpected(self, sim):
        table = MatchingTable(N_NODES)
        table.arrive(2, 1, 1, "eager", payload=Payload.of(b"x"))
        assert table.unexpected_count == 1


class TestMixingForbidden:
    def test_specific_then_wildcard(self, sim):
        table = MatchingTable(N_NODES)
        table.post_recv(0, 1, RecvRequest(sim, 0, 1, -1))
        with pytest.raises(MatchingError, match="mix"):
            table.post_recv(ANY_SOURCE, 1, any_req(sim))

    def test_wildcard_then_specific(self, sim):
        table = MatchingTable(N_NODES)
        table.post_recv(ANY_SOURCE, 1, any_req(sim))
        with pytest.raises(MatchingError, match="mix"):
            table.post_recv(0, 1, RecvRequest(sim, 0, 1, -1))

    def test_different_tags_can_differ(self, sim):
        table = MatchingTable(N_NODES)
        table.post_recv(ANY_SOURCE, 1, any_req(sim, tag=1))
        table.post_recv(0, 2, RecvRequest(sim, 0, 2, -1))  # no conflict


class TestExactModeStillWorks:
    def test_exact_match_out_of_stash(self, sim):
        """A specific receive can claim a stashed out-of-order arrival."""
        table = MatchingTable(N_NODES)
        table.arrive(0, 1, 1, "eager", payload=Payload.of(b"late"))
        r0 = RecvRequest(sim, 0, 1, -1)
        r1 = RecvRequest(sim, 0, 1, -1)
        assert table.post_recv(0, 1, r0).kind == "posted"
        outcome = table.post_recv(0, 1, r1)
        assert outcome.kind == "eager" and outcome.payload.data == b"late"
        assert table._stash == {}  # claimed out of the stash: no empty dict left

    def test_duplicate_arrival_rejected(self, sim):
        table = MatchingTable(N_NODES)
        table.arrive(0, 1, 0, "eager", payload=Payload.of(b"x"))
        with pytest.raises(MatchingError):
            table.arrive(0, 1, 0, "eager", payload=Payload.of(b"x"))

    def test_duplicate_stashed_arrival_rejected(self, sim):
        table = MatchingTable(N_NODES)
        table.arrive(0, 1, 5, "eager", payload=Payload.of(b"x"))
        with pytest.raises(MatchingError):
            table.arrive(0, 1, 5, "eager", payload=Payload.of(b"x"))

    def test_repeat_of_delivered_sequence_rejected(self, sim):
        table = MatchingTable(N_NODES)
        table.arrive(0, 1, 0, "eager", payload=Payload.of(b"x"))
        table.post_recv(ANY_SOURCE, 1, any_req(sim))  # consumes the arrival
        with pytest.raises(MatchingError, match="repeats"):
            table.arrive(0, 1, 0, "eager", payload=Payload.of(b"again"))
