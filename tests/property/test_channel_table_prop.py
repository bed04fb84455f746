"""Property: the flat channel tables number messages as per-peer gates did.

A connection used to be an object per peer holding a counter per tag
(``dict[peer][tag]``); it is now one int entry, ``tag * n_nodes + peer``,
in the engine's send table and one in the matching table.  Random
interleavings of submits, exact receives, wildcard receives and partial
runs over several channels must assign every sequence number the
two-level model assigns, and the key must tell every channel apart.
"""

from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, paper_platform
from repro.core.matching import ANY_SOURCE
from repro.core.packet import Payload
from repro.core.request import RecvRequest

N_NODES = 4
EXACT_TAGS = (1, 2)
WILD_TAG = 3  # a tag is either exact or wildcard on a node, never both


@st.composite
def traffic(draw):
    """Messages ``(src, dst, tag)``, then a shuffle of one send and one
    receive per message with runs of the simulator in between."""
    nodes = st.integers(min_value=0, max_value=N_NODES - 1)
    messages = draw(
        st.lists(
            st.tuples(nodes, nodes, st.sampled_from(EXACT_TAGS + (WILD_TAG,))).filter(
                lambda m: m[0] != m[1]
            ),
            min_size=1,
            max_size=24,
        )
    )
    ops = [("send", m) for m in messages] + [("recv", m) for m in messages]
    ops += [("run", None)] * draw(st.integers(min_value=0, max_value=4))
    return draw(st.permutations(ops))


def _body(src, tag, seq):
    return bytes((src, tag, seq))


@given(traffic())
@settings(max_examples=150, deadline=None)
def test_every_seq_matches_the_two_level_model(ops):
    session = Session(paper_platform(n_nodes=N_NODES), strategy="aggreg_multirail")
    # the model: model[node][peer][tag] -> next sequence number
    sent = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
    posted = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
    exact, wild = [], defaultdict(list)
    for op, message in ops:
        if op == "run":
            session.run(until=session.sim.now + 3.0)
            continue
        src, dst, tag = message
        if op == "send":
            seq = sent[src][dst][tag]
            request = session.engine(src).submit(dst, tag, Payload.of(_body(src, tag, seq)))
            assert request.seq == seq
            sent[src][dst][tag] = seq + 1
        elif tag == WILD_TAG:
            wild[dst].append(session.engine(dst).post_recv(ANY_SOURCE, tag))
        else:
            request = session.engine(dst).post_recv(src, tag)
            assert request.seq == posted[dst][src][tag]
            posted[dst][src][tag] += 1
            exact.append((request, src, tag))
    session.run_until_idle()
    # the tables hold exactly the model's channels and counters
    for node in range(N_NODES):
        engine = session.engine(node)
        assert engine._seq_out == {
            tag * N_NODES + peer: n
            for peer, tags in sent[node].items()
            for tag, n in tags.items()
        }
        assert engine.matching._recv_seq == {
            tag * N_NODES + peer: n
            for peer, tags in posted[node].items()
            for tag, n in tags.items()
        }
    # the nth send of a channel reached its nth exact receive ...
    for request, src, tag in exact:
        assert request.done and request.payload.data == _body(src, tag, request.seq)
    # ... and wildcard receives saw each source's messages once, in order
    for dst, requests in wild.items():
        seen = defaultdict(list)
        for request in requests:
            assert request.done
            assert request.payload.data == _body(request.peer, WILD_TAG, request.seq)
            seen[request.peer].append(request.seq)
        for src, seqs in seen.items():
            assert seqs == list(range(sent[src][dst][WILD_TAG]))


@st.composite
def channels(draw):
    """A node count ``n`` and ``(peer, tag)`` pairs, peers 1 .. n - 1 (node
    0 sends and receives) and tags up to 2**40."""
    n = draw(st.integers(min_value=2, max_value=1024))
    pair = st.tuples(
        st.integers(min_value=1, max_value=n - 1), st.integers(min_value=0, max_value=2**40)
    )
    return n, draw(st.lists(pair, min_size=1, max_size=20))


@given(channels())
@settings(max_examples=100, deadline=None)
def test_a_channel_key_is_injective_and_decodes_back(case):
    """Both tables count every ``(peer, tag)`` apart, and ``divmod(chan,
    n_nodes)`` gives back ``(tag, peer)``."""
    n, pairs = case
    engine = Session(paper_platform(n_nodes=n), strategy="aggreg").engine(0)
    for peer, tag in pairs:
        engine.submit(peer, tag, Payload.virtual(1))
        engine.matching.post_recv(peer, tag, RecvRequest(engine.sim, peer, tag, -1))
    want = Counter(pairs)
    for table in (engine._seq_out, engine.matching._recv_seq):
        assert all(type(chan) is int for chan in table)
        decoded = {divmod(chan, n)[::-1]: count for chan, count in table.items()}
        assert decoded == want
