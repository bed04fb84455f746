"""Property-based tests for tag matching under arbitrary interleavings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import MatchingTable
from repro.core.packet import Payload
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
