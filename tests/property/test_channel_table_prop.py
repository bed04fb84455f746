"""Property: the flat channel tables number messages as per-peer gates did.

A connection used to be an object per peer holding a counter per tag
(``dict[peer][tag]``); it is now one ``(peer, tag)`` entry in the engine's
send table and one in the matching table.  Random interleavings of submits,
exact receives, wildcard receives and partial runs over several channels
must assign every sequence number the two-level model assigns.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, paper_platform
from repro.core.matching import ANY_SOURCE
from repro.core.packet import Payload

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
            (peer, tag): n for peer, tags in sent[node].items() for tag, n in tags.items()
        }
        assert engine.matching._recv_seq == {
            (peer, tag): n for peer, tags in posted[node].items() for tag, n in tags.items()
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
