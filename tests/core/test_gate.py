"""Unit tests for the send side of the channel table."""

from repro import Session, paper_platform
from repro.core.packet import Payload


def test_seq_monotonic_per_tag():
    """Send sequence numbers count per (peer, tag) channel, from zero, in
    a table keyed by the one int ``tag * n_nodes + peer``."""
    engine = Session(paper_platform(n_nodes=3), strategy="aggreg").engine(0)

    def submit(peer, tag):
        return engine.submit(peer, tag, Payload.virtual(1)).seq

    assert [submit(1, 5) for _ in range(3)] == [0, 1, 2]
    assert submit(1, 6) == 0  # independent channel: another tag
    assert submit(2, 5) == 0  # independent channel: another peer
    assert submit(1, 5) == 3
    assert engine._seq_out == {5 * 3 + 1: 4, 6 * 3 + 1: 1, 5 * 3 + 2: 1}

