"""Unit tests for payloads, packet wrappers and control entries."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.packet import (
    DmaChunk,
    EagerEntry,
    PacketWrapper,
    Payload,
    RdvAck,
    RdvReq,
)
from repro.util.errors import ProtocolError


class TestPayload:
    def test_of_bytes(self):
        p = Payload.of(b"hello")
        assert p.size == 5 and p.data == b"hello" and not p.is_virtual

    def test_of_int_is_virtual(self):
        p = Payload.of(1024)
        assert p.size == 1024 and p.is_virtual

    def test_of_payload_passthrough(self):
        p = Payload.of(b"x")
        assert Payload.of(p) is p

    def test_of_bytearray(self):
        assert Payload.of(bytearray(b"ab")).data == b"ab"

    def test_of_bad_type(self):
        with pytest.raises(ProtocolError):
            Payload.of(3.14)

    def test_virtual_payloads_of_one_size_are_one_object(self):
        p = Payload.virtual(4096)
        assert Payload.virtual(4096) is p and Payload.of(4096) is p
        assert Payload.virtual(8192).slice(1024, 4096) is p
        assert Payload.virtual(4097) is not p
        # real payloads are never shared, equal or not
        assert Payload.of(b"ab") is not Payload.of(b"ab")

    def test_shared_payload_table_is_bounded(self):
        from repro.core.packet import _virtual

        sizes = range(10_000, 10_000 + 4 * _virtual.cache_info().maxsize)
        assert [Payload.virtual(n).size for n in sizes] == list(sizes)
        info = _virtual.cache_info()
        assert info.currsize <= info.maxsize == 256
        with pytest.raises(ProtocolError):
            Payload.virtual(-1)  # a rejected size is not remembered either
        with pytest.raises(ProtocolError):
            Payload.of(-1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            Payload(3, b"toolong!")

    def test_negative_size_rejected(self):
        with pytest.raises(ProtocolError):
            Payload.virtual(-1)

    def test_slice_real(self):
        p = Payload.of(b"abcdef")
        assert p.slice(2, 3).data == b"cde"
        assert p.slice(0, 6).data == b"abcdef"
        assert p.slice(6, 0).size == 0

    def test_slice_virtual(self):
        p = Payload.virtual(100)
        s = p.slice(10, 20)
        assert s.is_virtual and s.size == 20

    @pytest.mark.parametrize("off,length", [(-1, 2), (0, 7), (5, 2)])
    def test_slice_out_of_range(self, off, length):
        for payload in (Payload.of(b"abcdef"), Payload.virtual(6)):
            with pytest.raises(ProtocolError):
                payload.slice(off, length)

    @given(
        size=st.integers(0, 64),
        offset=st.integers(-4, 80),
        length=st.integers(-4, 80),
    )
    def test_a_slice_is_inside_its_payload_or_refused(self, size, offset, length):
        """Real and virtual alike: ``[offset, offset + length)`` inside
        ``[0, size)`` is a payload of ``length`` bytes, anything else a
        ``ProtocolError``."""
        real = Payload.of(bytes(i % 256 for i in range(size)))
        for payload in (real, Payload.virtual(size)):
            if offset < 0 or length < 0 or offset + length > size:
                with pytest.raises(ProtocolError):
                    payload.slice(offset, length)
                continue
            part = payload.slice(offset, length)
            assert part.size == length and part.is_virtual == payload.is_virtual
            if not part.is_virtual:
                assert part.data == real.data[offset : offset + length]

    def test_equality(self):
        assert Payload.of(b"x") == Payload.of(b"x")
        assert Payload.of(b"x") != Payload.of(b"y")
        assert Payload.virtual(3) == Payload.virtual(3)
        assert Payload.of(b"abc") != Payload.virtual(3)
        assert Payload.of(b"x") != "x"


class TestRdvReq:
    def test_valid_single_chunk(self):
        req = RdvReq(req_id=1, tag=0, seq=0, total_length=100, chunks=((0, 0, 100),))
        assert req.total_length == 100

    def test_valid_multi_chunk_any_order(self):
        RdvReq(1, 0, 0, 100, chunks=((1, 60, 40), (0, 0, 60)))

    def test_gap_rejected(self):
        with pytest.raises(ProtocolError, match="gap"):
            RdvReq(1, 0, 0, 100, chunks=((0, 0, 50), (1, 60, 40)))

    def test_overlap_rejected(self):
        with pytest.raises(ProtocolError):
            RdvReq(1, 0, 0, 100, chunks=((0, 0, 60), (1, 50, 50)))

    def test_wrong_total_rejected(self):
        with pytest.raises(ProtocolError, match="cover"):
            RdvReq(1, 0, 0, 100, chunks=((0, 0, 99),))

    def test_empty_chunks_rejected(self):
        with pytest.raises(ProtocolError):
            RdvReq(1, 0, 0, 100, chunks=())

    def test_bad_chunk_rejected(self):
        with pytest.raises(ProtocolError):
            RdvReq(1, 0, 0, 100, chunks=((-1, 0, 100),))
        with pytest.raises(ProtocolError):
            RdvReq(1, 0, 0, 0, chunks=((0, 0, 0),))

    def test_wire_size_grows_with_chunks(self):
        one = RdvReq(1, 0, 0, 100, chunks=((0, 0, 100),))
        two = RdvReq(2, 0, 0, 100, chunks=((0, 0, 50), (1, 50, 50)))
        assert two.wire_size(32) == one.wire_size(32) + 8


class TestPacketWrapper:
    def test_entry_classification(self):
        pw = PacketWrapper(0, 1, None, header_bytes=16, ctrl_bytes=32)
        e1 = EagerEntry(tag=1, seq=0, payload=Payload.of(b"abcd"))
        e2 = RdvAck(req_id=3)
        pw.add(e1)
        pw.add(e2)
        assert pw.entries == [e1, e2]
        assert pw.data_bytes == 4 and pw.data_count == 1

    def test_wire_size(self):
        pw = PacketWrapper(0, 1, None, header_bytes=16, ctrl_bytes=32)
        assert pw.wire_bytes == 0
        pw.add(EagerEntry(tag=1, seq=0, payload=Payload.virtual(100)))
        pw.add(RdvAck(req_id=1))
        pw.add(RdvReq(2, 0, 0, 50, chunks=((0, 0, 50),)))
        assert pw.wire_bytes == (16 + 100) + 16 + 32

    def test_eager_entry_wire_size(self):
        e = EagerEntry(tag=0, seq=0, payload=Payload.virtual(10))
        assert e.wire_size(16) == 26


class TestDmaChunk:
    def test_length(self):
        c = DmaChunk(req_id=1, src_node=0, offset=10, payload=Payload.virtual(90))
        assert c.length == 90
