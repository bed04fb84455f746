"""Unit tests for receive-side matching."""

from collections import deque

import pytest

from repro.core.matching import ANY_SOURCE, MatchingTable, _Arrival
from repro.core.packet import Payload, RdvReq
from repro.core.request import RecvRequest
from repro.sim import Simulator
from repro.util.errors import MatchingError

#: peers are node ids 0 .. N_NODES - 1
N_NODES = 4


@pytest.fixture()
def sim():
    return Simulator()


def req(sim, peer=0, tag=1):
    return RecvRequest(sim, peer, tag, seq=-1)


def rdv(tag=1, seq=0, req_id=1, length=100_000):
    return RdvReq(req_id=req_id, tag=tag, seq=seq, total_length=length, chunks=((0, 0, length),))


def matched(matches):
    """The requests an arrival's matches complete, in order."""
    return [m[0] for m in matches]


class TestPostFirst:
    def test_posted_then_matched(self, sim):
        table = MatchingTable(N_NODES)
        r = req(sim)
        outcome = table.post_recv(0, 1, r)
        assert outcome.kind == "posted"
        assert r.seq == 0
        assert matched(table.arrive(0, 1, 0, "eager", payload=Payload.of(b"hi"))) == [r]
        assert table.posted_count == 0

    def test_sequence_numbers_assigned_in_post_order(self, sim):
        table = MatchingTable(N_NODES)
        reqs = [req(sim) for _ in range(3)]
        for r in reqs:
            table.post_recv(0, 1, r)
        assert [r.seq for r in reqs] == [0, 1, 2]

    def test_channels_are_independent(self, sim):
        table = MatchingTable(N_NODES)
        r_a = req(sim, peer=0, tag=1)
        r_b = req(sim, peer=0, tag=2)
        r_c = req(sim, peer=1, tag=1)
        for peer, tag, r in [(0, 1, r_a), (0, 2, r_b), (1, 1, r_c)]:
            table.post_recv(peer, tag, r)
        assert (r_a.seq, r_b.seq, r_c.seq) == (0, 0, 0)
        assert matched(table.arrive(0, 2, 0, "eager", payload=Payload.of(b"x"))) == [r_b]

    def test_a_delivered_receive_shares_its_senders_seq(self, sim):
        """Posted first or parked first, a matched receive holds the
        arrival's seq int, not an equal copy of its own (ints above 256
        are not cached, so a kept receive would hold one more)."""
        table = MatchingTable(N_NODES)
        for _ in range(300):
            table.post_recv(0, 1, req(sim))
        posted, parked = req(sim), req(sim)
        table.post_recv(0, 1, posted)
        seq = int("300")  # a fresh object, as a packet's would be
        assert matched(table.arrive(0, 1, seq, "eager", payload=Payload.of(b"x"))) == [posted]
        assert posted.seq is seq
        late = int("301")
        assert table.arrive(0, 1, late, "eager", payload=Payload.of(b"y")) == []
        assert table.post_recv(0, 1, parked).kind == "eager"
        assert parked.seq is late

    def test_out_of_order_arrival_matches_by_seq(self, sim):
        table = MatchingTable(N_NODES)
        r0, r1 = req(sim), req(sim)
        table.post_recv(0, 1, r0)
        table.post_recv(0, 1, r1)
        # seq 1 arrives before seq 0 (multi-rail reordering)
        assert matched(table.arrive(0, 1, 1, "eager", payload=Payload.of(b"b"))) == [r1]
        assert matched(table.arrive(0, 1, 0, "eager", payload=Payload.of(b"a"))) == [r0]


def eager(table, seq, peer=0, tag=1):
    """Deliver eager message ``seq``; the requests it completes."""
    return matched(table.arrive(peer, tag, seq, "eager", payload=Payload.of(bytes([seq]))))


class TestWaitingQueue:
    """A channel's waiting receives: one request, or a deque whose slots
    are seqs ``[_recv_seq - len, _recv_seq)``, ``None`` where a seq
    matched at post time.  Each case below is one transition of that
    queue; the law over random interleavings is
    ``tests/property/test_matching_prop.py``."""

    def test_a_post_that_matches_at_once_while_others_wait_keeps_its_slot(self, sim):
        table = MatchingTable(N_NODES)
        r0, r1 = req(sim), req(sim)
        table.post_recv(0, 1, r0)
        table.post_recv(0, 1, r1)
        assert eager(table, 2) == []  # unexpected: parked
        assert table.post_recv(0, 1, req(sim)).kind == "eager"  # seq 2, at once
        r3 = req(sim)
        table.post_recv(0, 1, r3)
        assert table.posted_count == 3
        # without seq 2's placeholder the queue would read r0 as seq 1
        assert eager(table, 0) == [r0]
        assert eager(table, 3) == [r3]
        assert eager(table, 1) == [r1]
        assert table.posted_count == 0 and table._posted == {}

    def test_one_waiting_receive_becomes_a_queue_across_a_gap(self, sim):
        table = MatchingTable(N_NODES)
        r0 = req(sim)
        table.post_recv(0, 1, r0)
        assert eager(table, 1) == [] and eager(table, 2) == []
        for _ in range(2):  # seqs 1 and 2 match at post time
            assert table.post_recv(0, 1, req(sim)).kind == "eager"
        r3 = req(sim)
        table.post_recv(0, 1, r3)  # the second waiting receive, two seqs on
        assert (r0.seq, r3.seq, table.posted_count) == (0, 3, 2)
        assert eager(table, 3) == [r3]
        assert eager(table, 0) == [r0]
        assert table.posted_count == 0 and table._posted == {}

    def test_an_out_of_order_arrival_inside_a_queue_frees_its_slot(self, sim):
        table = MatchingTable(N_NODES)
        reqs = [req(sim) for _ in range(3)]
        for r in reqs:
            table.post_recv(0, 1, r)
        assert eager(table, 1) == [reqs[1]]
        assert table.posted_count == 2
        assert eager(table, 0) == [reqs[0]]
        assert table.posted_count == 1
        # a repeat of a seq before the queue's head completes no receive
        with pytest.raises(MatchingError, match="repeats a delivered sequence"):
            eager(table, 0)
        assert table.posted_count == 1
        assert eager(table, 2) == [reqs[2]]
        assert table.posted_count == 0 and table._posted == {}


class TestArriveFirst:
    def test_unexpected_then_posted(self, sim):
        table = MatchingTable(N_NODES)
        assert table.arrive(0, 1, 0, "eager", payload=Payload.of(b"early")) == []
        assert table.unexpected_count == 1
        outcome = table.post_recv(0, 1, req(sim))
        assert outcome.kind == "eager"
        assert outcome.payload.data == b"early"
        assert table.unexpected_count == 0

    def test_a_repeat_of_a_delivered_seq_is_refused_and_not_parked(self, sim):
        table = MatchingTable(N_NODES)
        first, second, third = req(sim), req(sim), req(sim)
        table.post_recv(0, 1, first)
        assert matched(table.arrive(0, 1, 0, "eager", payload=Payload.of(b"a"))) == [first]
        # delivered at arrival, nothing waits on the channel
        with pytest.raises(MatchingError, match="repeats a delivered sequence"):
            table.arrive(0, 1, 0, "eager", payload=Payload.of(b"a"))
        # delivered at post time, while one receive waits for a later seq
        table.arrive(0, 1, 1, "rdv", rdv=rdv(seq=1))
        assert table.post_recv(0, 1, second).kind == "rdv"
        table.post_recv(0, 1, third)
        for seq in (0, 1):
            with pytest.raises(MatchingError, match="repeats a delivered sequence"):
                table.arrive(0, 1, seq, "rdv", rdv=rdv(seq=seq))
        assert table.unexpected_count == table.pending_rdv_count == 0
        assert table.posted_count == 1
        assert matched(table.arrive(0, 1, 2, "eager", payload=Payload.of(b"c"))) == [third]

    def test_duplicate_unexpected_rejected(self, sim):
        table = MatchingTable(N_NODES)
        table.arrive(0, 1, 0, "eager", payload=Payload.of(b"x"))
        with pytest.raises(MatchingError):
            table.arrive(0, 1, 0, "eager", payload=Payload.of(b"x"))

    def test_rdv_then_posted(self, sim):
        table = MatchingTable(N_NODES)
        r = rdv(tag=1, seq=0)
        assert table.arrive(0, 1, 0, "rdv", rdv=r) == []
        assert table.pending_rdv_count == 1
        outcome = table.post_recv(0, 1, req(sim))
        assert outcome.kind == "rdv"
        assert outcome.rdv is r and outcome.rdv_src == 0

    def test_posted_then_rdv(self, sim):
        table = MatchingTable(N_NODES)
        r = req(sim)
        table.post_recv(0, 1, r)
        assert matched(table.arrive(0, 1, 0, "rdv", rdv=rdv())) == [r]

    def test_duplicate_rdv_rejected(self, sim):
        table = MatchingTable(N_NODES)
        table.arrive(0, 1, 0, "rdv", rdv=rdv(req_id=1))
        with pytest.raises(MatchingError):
            table.arrive(0, 1, 0, "rdv", rdv=rdv(req_id=2))  # same (peer, tag, seq)


def arrivals_held(table):
    """Every arrival record reachable through the table's containers."""
    found, stack = [], list(vars(table).values())
    while stack:
        obj = stack.pop()
        if isinstance(obj, _Arrival):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, deque)):
            stack.extend(obj)
    return found


class TestConsumedArrivalsAreDropped:
    def test_exact_tag_keeps_no_consumed_arrival(self, sim):
        """Arrive-then-post on a specific-source tag used to leave every
        arrival in the wildcard ready queue, which nothing ever popped."""
        table = MatchingTable(N_NODES)
        for seq in range(1000):
            assert table.arrive(0, 2, seq, "eager", Payload.virtual(8)) == []
            assert table.post_recv(0, 2, req(sim, tag=2)).kind == "eager"
        assert arrivals_held(table) == []
        assert table.unexpected_count == 0

    def test_arrivals_before_the_first_post_serve_either_discipline(self, sim):
        exact, wild = MatchingTable(N_NODES), MatchingTable(N_NODES)
        for table in (exact, wild):
            for seq in range(3):
                table.arrive(0, 2, seq, "eager", Payload.of(bytes([seq])))
            assert len(arrivals_held(table)) > 0 and table.unexpected_count == 3
        for seq in range(3):  # the tag's first receive fixes its discipline
            assert exact.post_recv(0, 2, req(sim, tag=2)).payload.data == bytes([seq])
            assert wild.post_recv(ANY_SOURCE, 2, req(sim, tag=2)).payload.data == bytes([seq])
        assert arrivals_held(exact) == [] and arrivals_held(wild) == []

    def test_out_of_order_arrivals_on_an_exact_tag_are_dropped_too(self, sim):
        table = MatchingTable(N_NODES)
        table.post_recv(0, 2, req(sim, tag=2))
        table.arrive(0, 2, 0, "eager", Payload.virtual(1))  # matches the post
        for seq in (3, 2, 1):  # stashed, then released in order by seq 1
            table.arrive(0, 2, seq, "eager", Payload.virtual(1))
        assert table.unexpected_count == 3
        for _ in range(3):
            assert table.post_recv(0, 2, req(sim, tag=2)).kind == "eager"
        assert arrivals_held(table) == [] and table.unexpected_count == 0
