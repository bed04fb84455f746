"""Unit tests for platform assembly, NICs, hosts and fabrics."""

import pytest

from repro.hardware import Platform
from repro.hardware.presets import paper_platform
from repro.hardware.topology import rail_optimized_platform
from repro.sim import Simulator
from repro.util.errors import DriverError, PlatformError


@pytest.fixture()
def platform():
    return Platform(Simulator(), paper_platform(n_nodes=3))


class TestPlatform:
    def test_dimensions(self, platform):
        assert platform.n_nodes == 3 and platform.n_rails == 2
        assert len(platform.hosts) == 3 and len(platform.fabrics) == 2

    def test_every_host_has_one_nic_per_rail(self, platform):
        for host in platform.hosts:
            assert [n.rail_index for n in host.nics] == [0, 1]

    def test_accessor_errors(self, platform):
        with pytest.raises(PlatformError):
            platform.host(9)
        with pytest.raises(PlatformError):
            platform.nic(0, 9)
        with pytest.raises(PlatformError):
            platform.nic(5, 0)
        with pytest.raises(PlatformError):
            platform.fabric(7)

    def test_negative_node_ids_are_refused_not_wrapped(self):
        """``-1`` used to mean the last node: its host, its NIC, a phantom
        uplink ``up.l-1`` made on the spot, a cached route for a node that
        does not exist."""
        platform = Platform(Simulator(), rail_optimized_platform(64))
        for call in (
            lambda: platform.host(-1),
            lambda: platform.nic(0, -1),
            lambda: platform.dma_path(0, -1, 40),
            lambda: platform.dma_path(0, 40, -1),
            lambda: platform.wire_latency_us(0, 0, 5000),
            lambda: platform.wire_latency_us(0, -1, 3),
        ):
            with pytest.raises(PlatformError, match=r"^no node (-1|5000) \(have 64\)$"):
                call()
        assert platform.topologies[0].links_created == 0
        assert platform.topologies[0].routes_cached == 0

    def test_dma_path_structure(self, platform):
        path = platform.dma_path(1, 0, 2)
        names = [l.name for l in path]
        assert names == [
            "node0.bus.tx",
            "node0.qsnet2.tx",
            "node2.qsnet2.rx",
            "node2.bus.rx",
        ]

    def test_nic_link_capacities_match_spec(self, platform):
        nic = platform.nic(0, 0)
        assert nic.tx_link.capacity == platform.spec.rails[0].bw_MBps
        assert nic.rx_link.capacity == platform.spec.rails[0].bw_MBps

    def test_bus_capacity_matches_host_spec(self, platform):
        host = platform.host(1)
        assert host.bus_tx.capacity == platform.spec.host.bus_MBps


class TestNIC:
    def test_deliver_queues_and_wakes(self, platform):
        nic = platform.nic(0, 1)
        woken = []
        nic.host.activity.wait(lambda v: woken.append(v))
        nic.deliver("pkt")
        assert len(nic.rx_queue) == 1
        assert len(woken) == 1
        assert nic.drain_rx() == ["pkt"]
        assert len(nic.rx_queue) == 0

    def test_drain_preserves_order(self, platform):
        nic = platform.nic(0, 1)
        for i in range(5):
            nic.deliver(i)
        assert nic.drain_rx() == [0, 1, 2, 3, 4]

    def test_dma_reservation_lifecycle(self, platform):
        nic = platform.nic(0, 0)
        assert not nic.dma_busy
        nic.reserve_dma()
        assert nic.dma_busy
        with pytest.raises(DriverError):
            nic.reserve_dma()
        nic.release_dma()
        assert not nic.dma_busy
        with pytest.raises(DriverError):
            nic.release_dma()

    def test_release_dma_wakes_host(self, platform):
        nic = platform.nic(0, 0)
        nic.reserve_dma()
        woken = []
        nic.host.activity.wait(lambda v: woken.append(v))
        nic.release_dma()
        assert len(woken) == 1


class TestFabric:
    def test_transmit_arrives_after_latency(self, platform):
        sim = platform.sim
        fabric = platform.fabric(0)
        dst = platform.nic(0, 1)
        fabric.transmit(0, 1, "hello", send_done_delay=2.0)
        assert len(dst.rx_queue) == 0
        sim.run()
        assert sim.now == pytest.approx(2.0 + platform.spec.rails[0].lat_us)
        assert dst.drain_rx() == ["hello"]

    def test_self_send_rejected(self, platform):
        with pytest.raises(PlatformError):
            platform.fabric(0).transmit(1, 1, "x", 0.0)

    def test_unknown_destination_rejected(self, platform):
        with pytest.raises(PlatformError):
            platform.fabric(0).transmit(0, 17, "x", 0.0)


class TestHost:
    def test_memcpy_cost(self, platform):
        host = platform.host(0)
        assert host.spec.memcpy_MBps == 6000.0  # paper host memcpy bandwidth

    def test_wake_without_waiters_is_noop(self, platform):
        platform.host(0).wake()  # must not raise
