"""Unit tests for the rendezvous manager (driven through a real engine)."""

import pytest

from repro import Session, paper_platform
from repro.core.packet import Payload, RdvAck
from repro.core.request import SendRequest
from repro.util.errors import ProtocolError


@pytest.fixture()
def engine(plat2):
    session = Session(plat2, strategy="greedy")
    # These tests drive the sender-side protocol by hand, bypassing the
    # receiver handshake; stop node 1's pump so it does not try to process
    # chunks for a rendezvous it never accepted.
    session.engine(1).stop()
    return session.engine(0)


def make_segment(engine, size=100_000, tag=3):
    """A segment for node 1: its send request, as a strategy queues it."""
    return SendRequest(engine.sim, 1, tag, 0, Payload.virtual(size))


class TestInitiate:
    def test_initiate_reserves_dma_engines(self, engine):
        seg = make_segment(engine)
        req = engine.rdv.initiate(seg, [(0, 0, 60_000), (1, 60_000, 40_000)])
        assert engine.driver(0).nic.dma_busy
        assert engine.driver(1).nic.dma_busy
        assert req.total_length == 100_000
        assert engine.rdv.outstanding_out == 1
        assert engine.rdv.split_count == 1

    def test_same_rail_twice_rejected(self, engine):
        seg = make_segment(engine)
        with pytest.raises(ProtocolError, match="twice"):
            engine.rdv.initiate(seg, [(0, 0, 50_000), (0, 50_000, 50_000)])

    def test_unknown_rail_rejected_before_anything_is_reserved(self, engine):
        seg = make_segment(engine)
        with pytest.raises(ProtocolError, match="rail 2: node 0 has 2 rails"):
            engine.rdv.initiate(seg, [(0, 0, 60_000), (2, 60_000, 40_000)])
        assert not engine.driver(0).nic.dma_busy
        assert engine.rdv.outstanding_out == 0 and engine.rdv.bytes_by_rail == {}

    def test_busy_rail_rejected_before_anything_is_reserved(self, engine):
        """All or nothing: a plan naming one DMA-busy rail reserves none of
        the others, and takes no request id."""
        engine.driver(1).nic.reserve_dma()
        seg = make_segment(engine)
        with pytest.raises(ProtocolError, match=r"rail 1 \(qsnet2\): its DMA engine is busy"):
            engine.rdv.initiate(seg, [(0, 0, 60_000), (1, 60_000, 40_000)])
        assert not engine.driver(0).nic.dma_busy
        assert engine.rdv.outstanding_out == 0 and engine.rdv.initiated == 0
        assert engine.rdv.initiate(seg, [(0, 0, seg.payload.size)]).req_id == 1

    def test_bytes_by_rail_accounting(self, engine):
        seg = make_segment(engine)
        engine.rdv.initiate(seg, [(0, 0, 60_000), (1, 60_000, 40_000)])
        assert engine.rdv.bytes_by_rail == {0: 60_000, 1: 40_000}


class TestAck:
    def test_unknown_ack_rejected(self, engine):
        with pytest.raises(ProtocolError, match="unknown"):
            engine.rdv.on_ack(RdvAck(req_id=999))

    def test_duplicate_ack_rejected(self, engine):
        seg = make_segment(engine)
        req = engine.rdv.initiate(seg, [(0, 0, seg.payload.size)])
        engine.rdv.on_ack(RdvAck(req_id=req.req_id))
        with pytest.raises(ProtocolError, match="duplicate"):
            engine.rdv.on_ack(RdvAck(req_id=req.req_id))

    def test_ack_starts_flows_and_completion_releases_dma(self, engine):
        seg = make_segment(engine)
        req = engine.rdv.initiate(seg, [(0, 0, 60_000), (1, 60_000, 40_000)])
        cost = engine.rdv.on_ack(RdvAck(req_id=req.req_id))
        assert cost > 0
        engine.sim.run_until_idle()
        assert not engine.driver(0).nic.dma_busy
        assert not engine.driver(1).nic.dma_busy
        assert seg.done
        assert engine.rdv.outstanding_out == 0


class TestChunks:
    def test_chunk_for_unknown_rendezvous_rejected(self, engine):
        from repro.core.packet import DmaChunk

        chunk = DmaChunk(req_id=42, src_node=1, offset=0, payload=Payload.virtual(10))
        with pytest.raises(ProtocolError, match="unknown"):
            engine.rdv.on_chunk(chunk)
