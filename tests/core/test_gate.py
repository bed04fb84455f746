"""Unit tests for segments and the send side of the channel table."""

from repro import Session, paper_platform
from repro.core.gate import Segment
from repro.core.packet import Payload
from repro.core.request import SendRequest
from repro.sim import Simulator


def test_seq_monotonic_per_tag():
    """Send sequence numbers count per (peer, tag) channel, from zero."""
    engine = Session(paper_platform(n_nodes=3), strategy="aggreg").engine(0)

    def submit(peer, tag):
        return engine.submit(peer, tag, Payload.virtual(1)).seq

    assert [submit(1, 5) for _ in range(3)] == [0, 1, 2]
    assert submit(1, 6) == 0  # independent channel: another tag
    assert submit(2, 5) == 0  # independent channel: another peer
    assert submit(1, 5) == 3
    assert engine._seq_out == {(1, 5): 4, (1, 6): 1, (2, 5): 1}


def test_segment_size():
    sim = Simulator()
    payload = Payload.of(b"abcd")
    seg = Segment(
        dst_node=1,
        tag=0,
        seq=0,
        payload=payload,
        request=SendRequest(sim, 1, 0, 0, payload),
        submitted_at=0.0,
    )
    assert seg.size == 4
