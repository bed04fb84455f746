"""Behaviour tests for the collect-layer send/receive API."""

import pytest

from repro import Session, available_strategies
from repro.sim.process import AllOf
from repro.util.errors import ApiError
from repro.util.units import MB


def exchange(session, data, tag=1):
    """Round-trip one payload 0 -> 1 and return what node 1 received."""
    recv = session.interface(1).irecv(0, tag)
    session.interface(0).isend(1, tag, data)
    session.run_until_idle()
    assert recv.done
    return recv


@pytest.mark.parametrize("strategy", ["single_rail", "aggreg", "greedy", "aggreg_multirail", "split_balance"])
def test_bytes_roundtrip_under_every_strategy(plat2, strategy):
    session = Session(plat2, strategy=strategy)
    recv = exchange(session, b"the quick brown fox")
    assert recv.data == b"the quick brown fox"


def test_virtual_payload_roundtrips_size(plat2):
    session = Session(plat2)
    recv = exchange(session, 12345)
    assert recv.payload.is_virtual and recv.payload.size == 12345


def test_large_payload_roundtrip(plat2):
    session = Session(plat2, strategy="greedy")
    data = bytes(range(256)) * 4096  # 1 MB patterned
    recv = exchange(session, data)
    assert recv.data == data


def test_tags_are_independent_channels(plat2):
    session = Session(plat2)
    a, b = session.interface(0), session.interface(1)
    r5 = b.irecv(0, 5)
    r9 = b.irecv(0, 9)
    a.isend(1, 9, b"nine")
    a.isend(1, 5, b"five")
    session.run_until_idle()
    assert r5.data == b"five" and r9.data == b"nine"


def test_fifo_within_one_tag(plat2):
    session = Session(plat2)
    a, b = session.interface(0), session.interface(1)
    recvs = [b.irecv(0, 1) for _ in range(3)]
    for i in range(3):
        a.isend(1, 1, bytes([i]))
    session.run_until_idle()
    assert [r.data for r in recvs] == [b"\x00", b"\x01", b"\x02"]


def test_negative_tag_rejected(plat2):
    session = Session(plat2)
    with pytest.raises(ApiError):
        session.interface(0).isend(1, -1, b"x")
    with pytest.raises(ApiError):
        session.interface(0).irecv(1, -2)


def test_bidirectional_simultaneous_traffic(plat2):
    session = Session(plat2, strategy="split_balance")
    a, b = session.interface(0), session.interface(1)
    done = {}

    def left():
        s = a.isend(1, 1, b"L" * 100_000)
        r = a.irecv(1, 1)
        yield AllOf([s.completion, r.completion])
        done["left"] = r.data

    def right():
        s = b.isend(0, 1, b"R" * 100_000)
        r = b.irecv(0, 1)
        yield AllOf([s.completion, r.completion])
        done["right"] = r.data

    session.spawn(left())
    session.spawn(right())
    session.run_until_idle()
    assert done["left"] == b"R" * 100_000
    assert done["right"] == b"L" * 100_000


def test_interface_properties(plat2):
    session = Session(plat2)
    iface = session.interface(1)
    assert iface.node_id == 1
    assert iface.sim is session.sim


# --- ill-typed input is refused at the call, in one ApiError line ---------
def _refused(call):
    """The one-line ApiError ``call`` raises."""
    with pytest.raises(ApiError) as info:
        call()
    message = str(info.value)
    assert "\n" not in message
    return message


def test_float_node_id_refused_at_the_call(plat2):
    """``isend(1.0, ...)`` was accepted, then raised ``TypeError: list
    indices must be integers`` from ``Fabric.transmit`` inside the run."""
    session = Session(plat2)
    assert "node id" in _refused(lambda: session.interface(0).isend(1.0, 1, 64))
    assert "node id" in _refused(lambda: session.interface(1).irecv(0.0, 1))
    assert "node id" in _refused(lambda: session.interface(0).isend(True, 1, 64))
    session.run_until_idle()  # nothing was queued
    assert session.engine(0)._seq_out == {} and session.engine(0).strategy.backlog == 0


def test_bool_size_refused_at_the_call(plat2):
    """``isend(1, 1, True)`` sent a 1-byte virtual payload."""
    session = Session(plat2)
    assert "bool" in _refused(lambda: session.interface(0).isend(1, 1, True))
    assert "float" in _refused(lambda: session.interface(0).isend(1, 1, 64.0))
    assert session.counters(0)["segments_submitted"] == 0


def test_float_tag_refused_at_the_call(plat2):
    """A float tag silently matched the equal int tag."""
    session = Session(plat2)
    recv = session.interface(1).irecv(0, 1)
    assert "tag" in _refused(lambda: session.interface(0).isend(1, 1.0, 8))
    assert "tag" in _refused(lambda: session.interface(1).irecv(0, 1.0))
    session.run_until_idle()
    assert not recv.done


def test_str_tag_refused_at_the_call(plat2):
    """``isend(1, "x", 8)`` raised a bare ``TypeError`` from ``"x" < 0``."""
    session = Session(plat2)
    assert "tag" in _refused(lambda: session.interface(0).isend(1, "x", 8))
    assert "tag" in _refused(lambda: session.interface(1).irecv(0, "x"))
