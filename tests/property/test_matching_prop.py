"""Property-based tests for tag matching under arbitrary interleavings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import MatchingTable
from repro.core.packet import Payload, RdvReq
from repro.core.request import RecvRequest
from repro.sim import Simulator

#: peers are node ids 0 .. N_NODES - 1
N_NODES = 3


@st.composite
def interleavings(draw):
    """N messages on one channel; a random interleaving of post/arrive
    events that respects each side's own ordering, with arrivals possibly
    reordered (multi-rail!)."""
    n = draw(st.integers(min_value=1, max_value=12))
    ops = ["post"] * n + ["arrive"] * n
    order = draw(st.permutations(ops))
    arrival_order = draw(st.permutations(range(n)))
    return n, list(order), list(arrival_order)


@given(interleavings())
@settings(max_examples=300, deadline=None)
def test_nth_send_always_matches_nth_receive(scenario):
    n, order, arrival_order = scenario
    sim = Simulator()
    table = MatchingTable(N_NODES)
    requests = []
    delivered = {}  # request index -> payload content
    arrivals = iter(arrival_order)
    for op in order:
        if op == "post":
            req = RecvRequest(sim, 0, 1, -1)
            outcome = table.post_recv(0, 1, req)
            requests.append(req)
            if outcome.kind == "eager":
                delivered[len(requests) - 1] = outcome.payload.data
        else:
            seq = next(arrivals)
            for matched, _, _ in table.arrive(0, 1, seq, "eager", payload=Payload.of(bytes([seq]))):
                delivered[matched.seq] = bytes([seq])
    # every message delivered to the request with the same index
    assert len(delivered) == n
    for idx, data in delivered.items():
        assert data == bytes([idx])
    assert table.unexpected_count == 0
    assert table.posted_count == 0


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=200, deadline=None)
def test_channels_never_cross(channel_sequence):
    """Posting and arriving across multiple (peer, tag) channels keeps
    sequence counters fully independent."""
    sim = Simulator()
    table = MatchingTable(N_NODES)
    per_channel_posts = {}
    for peer, tag in channel_sequence:
        req = RecvRequest(sim, peer, tag, -1)
        table.post_recv(peer, tag, req)
        expected = per_channel_posts.get((peer, tag), 0)
        assert req.seq == expected
        per_channel_posts[(peer, tag)] = expected + 1


#: two rails reorder a channel's messages by at most this many places
REORDER_WINDOW = 8


@st.composite
def exact_traffic(draw):
    """Exact receives and arrivals over ≤ 3 peers × 2 tags: each message
    eager or rendezvous, arrivals in send order moved by < 8 places, and
    posts and arrivals interleaved at random."""
    n = draw(st.integers(min_value=1, max_value=40))
    channels = st.tuples(st.integers(0, N_NODES - 1), st.integers(1, 2))
    sent = draw(st.lists(channels, min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(["eager", "rdv"]), min_size=n, max_size=n))
    shift = draw(st.lists(st.integers(0, REORDER_WINDOW - 1), min_size=n, max_size=n))
    seqs, count = [], {}
    for chan in sent:  # the sender numbers each channel in send order
        count[chan] = count.get(chan, -1) + 1
        seqs.append(count[chan])
    order = sorted(range(n), key=lambda i: i + shift[i])
    arrivals = [sent[i] + (seqs[i], kinds[i]) for i in order]
    posts = draw(st.permutations(sent))
    steps = draw(st.permutations(["post"] * n + ["arrive"] * n))
    return posts, arrivals, steps


@given(exact_traffic())
@settings(max_examples=400, deadline=None)
def test_the_waiting_queue_is_a_table_of_exact_keys(traffic):
    """Against a reference ``{(peer, tag, seq): request}`` model: each
    arrival completes the receive posted with its seq or parks, each post
    takes the arrival parked with its seq or waits, ``posted_count``
    agrees after every step, and once all have matched nothing waits."""
    posts, arrivals, steps = traffic
    sim = Simulator()
    table = MatchingTable(N_NODES)
    waiting, parked = {}, {}  # the reference model
    post_seq = {}
    posts, arrivals = iter(posts), iter(arrivals)
    for step in steps:
        if step == "post":
            peer, tag = next(posts)
            seq = post_seq[peer, tag] = post_seq.get((peer, tag), -1) + 1
            request = RecvRequest(sim, peer, tag, -1)
            outcome = table.post_recv(peer, tag, request)
            assert request.seq == seq
            held = parked.pop((peer, tag, seq), None)
            if held is None:
                assert outcome.kind == "posted"
                waiting[peer, tag, seq] = request
            else:
                kind, payload, rdv = held
                assert outcome.kind == kind
                assert (outcome.payload, outcome.rdv) == (payload, rdv)
        else:
            peer, tag, seq, kind = next(arrivals)
            payload = Payload.of(bytes([seq % 256])) if kind == "eager" else None
            rdv = (
                RdvReq(req_id=seq, tag=tag, seq=seq, total_length=1 << 16,
                       chunks=((0, 0, 1 << 16),))
                if kind == "rdv" else None
            )
            matches = table.arrive(peer, tag, seq, kind, payload=payload, rdv=rdv)
            request = waiting.pop((peer, tag, seq), None)
            if request is None:
                assert matches == []
                parked[peer, tag, seq] = (kind, payload, rdv)
            else:
                ((got, got_payload, got_rdv),) = matches
                assert got is request and got.seq == seq
                assert got_payload is payload and got_rdv is rdv
        assert table.posted_count == len(waiting)
    assert waiting == {} and parked == {}
    assert table._posted == {}
