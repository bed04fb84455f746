"""Law: a node id outside ``[0, n_nodes)`` is refused where it is given.

At every layer that takes one — ``NodeEngine.submit`` / ``post_recv``,
``Interface.isend`` / ``irecv`` and ``CommEndpoint.isend`` / ``irecv`` —
such an id is one ``ApiError`` line, and nothing is queued or posted;
``ANY_SOURCE`` stays legal for a receive.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Session, paper_platform
from repro.core.matching import ANY_SOURCE
from repro.core.packet import Payload
from repro.mpi import Communicator
from repro.util.errors import ApiError

N_NODES = 3

#: ids that name no node: below 0, or at or past the node count
outside = st.one_of(st.integers(max_value=-1), st.integers(min_value=N_NODES))

LAYERS = ("engine", "interface", "endpoint")


def _send_and_recv(session, layer):
    """The ``(send(peer), recv(peer))`` calls of node 0 at ``layer``."""
    if layer == "engine":
        engine = session.engine(0)
        return (lambda peer: engine.submit(peer, 1, Payload.of(8)),
                lambda peer: engine.post_recv(peer, 1))
    if layer == "interface":
        iface = session.interface(0)
        return lambda peer: iface.isend(peer, 1, 8), lambda peer: iface.irecv(peer, 1)
    ep = Communicator(session).endpoint(0)
    return lambda peer: ep.isend(8, peer, 1), lambda peer: ep.irecv(peer, 1)


def _refused(call, peer):
    with pytest.raises(ApiError) as info:
        call(peer)
    assert "\n" not in str(info.value) and str(peer) in str(info.value)


@pytest.mark.parametrize("layer", LAYERS)
@given(peer=outside)
@example(peer=N_NODES)
@example(peer=ANY_SOURCE)
@settings(max_examples=60, deadline=None)
def test_a_send_to_no_node_is_refused(layer, peer):
    session = Session(paper_platform(n_nodes=N_NODES))
    send, _ = _send_and_recv(session, layer)
    _refused(send, peer)
    assert session.engine(0)._seq_out == {}
    assert session.counters(0)["segments_submitted"] == 0


@pytest.mark.parametrize("layer", LAYERS)
@given(peer=outside.filter(lambda peer: peer != ANY_SOURCE))
@example(peer=N_NODES)
@settings(max_examples=60, deadline=None)
def test_a_receive_from_no_node_is_refused(layer, peer):
    session = Session(paper_platform(n_nodes=N_NODES))
    _, recv = _send_and_recv(session, layer)
    _refused(recv, peer)
    assert session.engine(0).matching.posted_count == 0


@pytest.mark.parametrize("layer", LAYERS)
def test_any_source_stays_legal_for_a_receive(layer):
    session = Session(paper_platform(n_nodes=N_NODES))
    _, recv = _send_and_recv(session, layer)
    request = recv(ANY_SOURCE)
    session.interface(2).isend(0, request.tag, b"x")
    session.run_until_idle()
    assert request.done and request.data == b"x"
