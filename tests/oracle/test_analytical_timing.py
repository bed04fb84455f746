"""Closed-form validation: the simulated protocol timings decompose
exactly into the specification constants, on every preset rail.

These tests pin the *mechanism*, not just the headline numbers: if anyone
reorders the pump phases, adds a hidden cost, or changes a protocol step,
the decomposition breaks by an exact, explainable amount.  Every one of
the six ``PRESET_RAILS`` is run on both sides of its eager threshold: the
largest payload one eager packet carries (``eager_threshold -
header_bytes``) must follow the eager formula, one byte more the
rendezvous formula.

The single-rail eager one-way decomposes as

    one_way = [poll + post + (s+hdr)/pio + lat]        PIO post + wire
            + [poll + handle + s/memcpy]                receive copy

and the single-rail rendezvous as

    one_way = [poll + post + req/pio + lat]            RDV_REQ eager
            + [poll + handle + post + ack/pio + lat]   RDV_ACK eager
            + [poll + post + setup + (s+hdr)/bw + lat] DMA flow
            + [poll + handle (+ s/memcpy)]             chunk handling

with ``req = ctrl_bytes`` (32 B) and ``ack = ctrl_bytes // 2`` (16 B); the
bracketed copy is paid only by a rail without ``zero_copy_recv`` (TCP),
whose received bulk data crosses host memory once more.
(Splitting across rails has no closed form — chunk rates change piecewise
as flows drain under max-min sharing — so it is validated by the shape
and conservation tests instead.)
"""

import pytest

from repro import Session, single_rail_platform
from repro.hardware.presets import PRESET_RAILS


def measured_one_way(rail, size):
    session = Session(single_rail_platform(rail), strategy="single_rail")
    recv = session.interface(1).irecv(0, 1)
    session.interface(0).isend(1, 1, size)
    t0 = session.sim.now
    session.run_until_idle()
    assert recv.done
    return recv.completed_at - t0


def expected_rdv(rail, host, size):
    p, post, pio = rail.poll_cost_us, rail.post_cost_us, rail.pio_MBps
    lat, h = rail.lat_us, rail.handle_cost_us
    setup, bw, hdr = rail.rdv_setup_us, rail.bw_MBps, rail.header_bytes
    req_wire, ack_wire = rail.ctrl_bytes, rail.ctrl_bytes // 2
    recv_copy = 0.0 if rail.zero_copy_recv else size / host.memcpy_MBps
    return (
        (p + post + req_wire / pio + lat)
        + (p + h + post + ack_wire / pio + lat)
        + (p + post + setup + (size + hdr) / bw + lat)
        + (p + h + recv_copy)
    )


def expected_eager(rail, host, size):
    p, post, pio = rail.poll_cost_us, rail.post_cost_us, rail.pio_MBps
    lat, h, hdr = rail.lat_us, rail.handle_cost_us, rail.header_bytes
    return p + post + (size + hdr) / pio + lat + p + h + size / host.memcpy_MBps


def _cases(protocol):
    """``(size, rail)`` pairs: each fixed size on every preset whose
    threshold it falls on the ``protocol`` side of."""
    out = []
    for rail in PRESET_RAILS.values():
        limit = rail.eager_threshold - rail.header_bytes  # largest eager payload
        if protocol == "eager":
            sizes = [s for s in (4, 1000, 8000) if s <= limit]
        else:
            sizes = [s for s in (20_000, 100_000, 2_000_000) if s > limit]
        out += [pytest.param(size, rail, id=f"{size}-{rail.name}") for size in sizes]
    return out


@pytest.mark.parametrize(("size", "rail"), _cases("rdv"))
def test_rendezvous_decomposition_exact(rail, size):
    host = single_rail_platform(rail).host
    assert measured_one_way(rail, size) == pytest.approx(
        expected_rdv(rail, host, size), abs=1e-6
    )


@pytest.mark.parametrize(("size", "rail"), _cases("eager"))
def test_eager_decomposition_exact(rail, size):
    host = single_rail_platform(rail).host
    assert measured_one_way(rail, size) == pytest.approx(
        expected_eager(rail, host, size), abs=1e-6
    )


def test_threshold_is_where_the_protocols_meet():
    """On every preset: the largest eager payload follows the eager
    formula, one byte more the rendezvous formula."""
    assert len(PRESET_RAILS) == 6
    for rail in PRESET_RAILS.values():
        host = single_rail_platform(rail).host
        below = rail.eager_threshold - rail.header_bytes
        above = below + 1
        assert measured_one_way(rail, below) == pytest.approx(
            expected_eager(rail, host, below), abs=1e-6
        ), rail.name
        assert measured_one_way(rail, above) == pytest.approx(
            expected_rdv(rail, host, above), abs=1e-6
        ), rail.name
