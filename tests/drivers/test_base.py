"""Unit tests for the driver (transmit) layer."""

import pytest

from repro.core.packet import DmaChunk, EagerEntry, PacketWrapper, Payload
from repro.drivers import Driver
from repro.hardware import Platform
from repro.hardware.presets import paper_platform
from repro.sim import Simulator
from repro.util.errors import DriverError


@pytest.fixture()
def platform():
    return Platform(Simulator(), paper_platform())


@pytest.fixture()
def mx(platform):
    return Driver(platform, 0, 0)


@pytest.fixture()
def elan(platform):
    return Driver(platform, 1, 0)


def wrapper(payload_size, rail_index=0, dst=1):
    # MX framing (rail 0): 16 B per eager entry, 32 B per control entry
    pw = PacketWrapper(0, dst, rail_index, header_bytes=16, ctrl_bytes=32)
    pw.add(EagerEntry(tag=1, seq=0, payload=Payload.virtual(payload_size)))
    return pw


class TestCapabilities:
    def test_eager_eligibility_uses_header(self, mx):
        thr = mx.spec.eager_threshold
        assert mx.eager_eligible(thr - mx.spec.header_bytes)
        assert not mx.eager_eligible(thr - mx.spec.header_bytes + 1)

    def test_latency_and_bandwidth_surface_spec(self, mx, elan):
        assert mx.bandwidth_MBps == mx.spec.bw_MBps
        assert elan.latency_us < mx.latency_us

    def test_names(self, mx, elan):
        assert mx.name == "myri10g" and mx.spec.driver == "mx"
        assert elan.name == "qsnet2" and elan.spec.driver == "elan"


class TestPoll:
    def test_poll_cost_and_drain(self, mx):
        mx.nic.deliver("pkt")
        cost, pkts = mx.poll()
        assert cost == mx.spec.poll_cost_us
        assert pkts == ["pkt"]
        assert mx.polls == 1
        cost, pkts = mx.poll()
        # an empty poll still costs and still counts; it hands back one
        # shared empty sequence instead of draining the queue
        assert cost == mx.spec.poll_cost_us
        assert len(pkts) == 0 and pkts is mx.poll()[1]
        assert mx.polls == 3


class TestEager:
    def test_cost_is_post_plus_pio(self, mx):
        pw = wrapper(1000)
        expected = mx.spec.post_cost_us + (1000 + 16) / mx.spec.pio_MBps
        assert sum(mx.eager_cost_parts(pw)) == pytest.approx(expected)

    def test_post_eager_delivers_after_cost_plus_latency(self, platform, mx):
        pw = wrapper(100)
        cost = mx.post_eager(pw)
        platform.sim.run()
        dst = platform.nic(0, 1)
        assert dst.drain_rx() == [pw]
        assert platform.sim.now == pytest.approx(cost + mx.spec.lat_us)

    def test_oversized_packet_rejected(self, mx):
        with pytest.raises(DriverError, match="exceeds"):
            mx.post_eager(wrapper(mx.spec.eager_threshold + 1))

    def test_wrong_rail_binding_rejected(self, mx):
        with pytest.raises(DriverError, match="bound to rail"):
            mx.post_eager(wrapper(100, rail_index=1))

    def test_statistics(self, mx):
        mx.post_eager(wrapper(100))
        assert mx.eager_posted == 1
        assert mx.eager_bytes == 116


class TestDma:
    def test_chunk_arrives_at_destination(self, platform, mx):
        done = []
        mx.start_dma(
            dst_node=1,
            req_id=9,
            offset=0,
            payload=Payload.virtual(100_000),
            delay=0.0,
            on_drain=lambda f: done.append(platform.sim.now),
        )
        platform.sim.run()
        dst = platform.nic(0, 1)
        pkts = dst.drain_rx()
        assert len(pkts) == 1
        chunk = pkts[0]
        assert isinstance(chunk, DmaChunk)
        assert chunk.req_id == 9 and chunk.length == 100_000
        # drain happened one fabric latency before delivery
        assert platform.sim.now == pytest.approx(done[0] + mx.spec.lat_us)

    def test_transfer_time_matches_bandwidth(self, platform, mx):
        size = 1_210_000  # exactly 1000us at 1210 MB/s
        mx.start_dma(1, 1, 0, Payload.virtual(size), delay=0.0)
        platform.sim.run()
        post = mx.spec.post_cost_us + mx.spec.rdv_setup_us
        expected = post + (size + 16) / mx.spec.bw_MBps + mx.spec.lat_us
        assert platform.sim.now == pytest.approx(expected, rel=1e-6)

    def test_empty_chunk_rejected(self, mx):
        with pytest.raises(DriverError):
            mx.start_dma(1, 1, 0, Payload.virtual(0), delay=0.0)

    def test_statistics(self, platform, mx):
        mx.start_dma(1, 1, 0, Payload.virtual(5000), delay=0.0)
        assert mx.dma_started == 1 and mx.dma_bytes == 5000

    def test_concurrent_dma_on_two_rails_shares_bus(self, platform, mx, elan):
        """End-to-end bus contention through the driver layer."""
        size = 4_000_000
        times = {}
        mx.start_dma(1, 1, 0, Payload.virtual(size), delay=0.0,
                     on_drain=lambda f: times.setdefault("mx", platform.sim.now))
        elan.start_dma(1, 2, 0, Payload.virtual(size), delay=0.0,
                       on_drain=lambda f: times.setdefault("elan", platform.sim.now))
        platform.sim.run()
        total_bw = 2 * size / max(times.values())
        assert 1500 <= total_bw <= platform.spec.host.bus_MBps
