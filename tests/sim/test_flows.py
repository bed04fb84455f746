"""Unit tests for the max-min fair flow network."""

import itertools

import pytest

from repro.sim import Flow, FlowError, FlowNetwork, Link, Simulator, max_min_rates
from repro.sim import flows as flows_module


@pytest.fixture()
def sim():
    return Simulator()


def mkflow(fid, *links, size=100.0):
    return Flow(fid, links, size, None, 0.0, 0.0)


class TestMaxMinRates:
    def test_single_flow_gets_path_minimum(self):
        a, b = Link("a", 1000.0), Link("b", 400.0)
        f = mkflow(1, a, b)
        assert max_min_rates([f])[f] == pytest.approx(400.0)

    def test_two_flows_share_common_bottleneck(self):
        bus = Link("bus", 1000.0)
        f1, f2 = mkflow(1, bus), mkflow(2, bus)
        rates = max_min_rates([f1, f2])
        assert rates[f1] == pytest.approx(500.0)
        assert rates[f2] == pytest.approx(500.0)

    def test_asymmetric_nic_limits(self):
        """The paper's exact configuration: 1210 + 860 NICs on a 1850 bus."""
        bus = Link("bus", 1850.0)
        mx, elan = Link("mx", 1210.0), Link("elan", 860.0)
        f_mx, f_elan = mkflow(1, bus, mx), mkflow(2, bus, elan)
        rates = max_min_rates([f_mx, f_elan])
        # elan is NIC-bound at 860; mx picks up the remaining bus capacity
        assert rates[f_elan] == pytest.approx(860.0)
        assert rates[f_mx] == pytest.approx(990.0)

    def test_conservation_on_every_link(self):
        bus = Link("bus", 900.0)
        l1, l2, l3 = Link("1", 500.0), Link("2", 300.0), Link("3", 800.0)
        flows = [mkflow(1, bus, l1), mkflow(2, bus, l2), mkflow(3, bus, l3)]
        rates = max_min_rates(flows)
        for link in (bus, l1, l2, l3):
            used = sum(r for f, r in rates.items() if link in f.path)
            assert used <= link.capacity + 1e-6

    def test_empty_flow_list(self):
        assert max_min_rates([]) == {}

    def test_empty_path_rejected(self):
        f = Flow(1, (), 10.0, None, 0.0, 0.0)
        with pytest.raises(FlowError):
            max_min_rates([f])

    def test_capacity_override(self):
        a = Link("a", 1000.0)
        f = mkflow(1, a)
        rates = max_min_rates([f], capacities={a: 100.0})
        assert rates[f] == pytest.approx(100.0)


class TestFlowNetwork:
    def test_single_flow_completion_time(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)  # 100 B/us
        done = []
        net.start_flow([link], 1000.0, on_complete=lambda f: done.append(sim.now))
        sim.run_until_idle()
        assert done == [pytest.approx(10.0)]
        assert net.completed_count == 1
        assert net.total_bytes_completed == pytest.approx(1000.0)

    def test_extra_latency_delays_completion_only(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)
        drained, completed = [], []
        net.start_flow(
            [link],
            1000.0,
            on_complete=lambda f: completed.append(sim.now),
            on_drain=lambda f: drained.append(sim.now),
            extra_latency=2.5,
        )
        sim.run_until_idle()
        assert drained == [pytest.approx(10.0)]
        assert completed == [pytest.approx(12.5)]

    def test_second_flow_speeds_up_after_first_drains(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)
        done = {}
        net.start_flow([link], 500.0, on_complete=lambda f: done.setdefault("a", sim.now))
        net.start_flow([link], 1000.0, on_complete=lambda f: done.setdefault("b", sim.now))
        sim.run_until_idle()
        # both at 50 B/us until a drains at t=10; b then finishes its
        # remaining 500 B at 100 B/us -> t = 10 + 5
        assert done["a"] == pytest.approx(10.0)
        assert done["b"] == pytest.approx(15.0)

    def test_flow_joining_midway_shares_fairly(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)
        done = {}
        net.start_flow([link], 1000.0, on_complete=lambda f: done.setdefault("a", sim.now))
        sim.run(until=5.0)  # a has moved 500 B
        net.start_flow([link], 250.0, on_complete=lambda f: done.setdefault("b", sim.now))
        sim.run_until_idle()
        # from t=5 both at 50: b finishes at t=10; a has 250 left, full rate
        assert done["b"] == pytest.approx(10.0)
        assert done["a"] == pytest.approx(12.5)

    def test_zero_size_flow_completes_after_latency(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)
        done, drained = [], []
        net.start_flow(
            [link],
            0.0,
            on_complete=lambda f: done.append(sim.now),
            on_drain=lambda f: drained.append(sim.now),
            extra_latency=3.0,
        )
        sim.run_until_idle()
        assert done == [3.0]
        assert drained == [0.0]
        assert link.active_flows == set()

    def test_negative_size_rejected(self, sim):
        net = FlowNetwork(sim)
        with pytest.raises(FlowError):
            net.start_flow([Link("l", 10.0)], -1.0)

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_non_finite_size_rejected(self, sim, size):
        # an accepted nan "completes" the flow and leaves sim.now == nan
        net = FlowNetwork(sim)
        link = Link("l", 10.0)
        with pytest.raises(FlowError, match="finite"):
            net.start_flow([link], size)
        assert not net.active_flows and not link.active_flows
        sim.run_until_idle()
        assert sim.now == 0.0

    def test_empty_path_rejected_not_hung(self, sim):
        # an attached flow without links gets rate 0 and no completion
        # event: the run would end idle with the transfer undelivered
        net = FlowNetwork(sim)
        with pytest.raises(FlowError, match=r"flow 1 .*empty path"):
            net.start_flow([], 100.0, tag="rdv-7")
        assert not net.active_flows
        # the network stays usable, and the rejected flow left no trace
        done = []
        net.start_flow([Link("l", 10.0)], 100.0, on_complete=done.append)
        sim.run_until_idle()
        assert len(done) == 1 and net.completed_count == 1

    def test_zero_size_flow_needs_no_path(self, sim):
        net = FlowNetwork(sim)
        done = []
        net.start_flow([], 0.0, on_complete=done.append, extra_latency=2.0)
        sim.run_until_idle()
        assert len(done) == 1 and sim.now == 2.0

    def test_cancel_flow(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)
        done = []
        flow = net.start_flow([link], 1000.0, on_complete=lambda f: done.append(1))
        other = net.start_flow([link], 1000.0, on_complete=lambda f: done.append(2))
        sim.run(until=2.0)
        net.cancel_flow(flow)
        assert flow.done
        sim.run_until_idle()
        assert done == [2]
        # the survivor sped up: 100 B at t=2, 900 left at full rate
        assert sim.now == pytest.approx(11.0)

    def test_cancel_completed_flow_is_noop(self, sim):
        net = FlowNetwork(sim)
        flow = net.start_flow([Link("l", 100.0)], 10.0)
        sim.run_until_idle()
        net.cancel_flow(flow)  # no exception
        assert flow.done

    def test_link_flow_set_is_made_by_the_first_flow(self, sim):
        """A link no flow crossed holds the shared empty sentinel; the first
        flow gets the rate any other would, and leaves a real, empty set."""
        net = FlowNetwork(sim)
        fresh, shared = Link("fresh", 100.0), Link("shared", 300.0)
        assert fresh.active_flows is shared.active_flows is flows_module._NO_FLOWS
        assert fresh.utilization == 0.0
        flow = net.start_flow([fresh, shared], 1000.0)
        assert fresh.active_flows == {flow} and flow.rate == 100.0
        other = net.start_flow([shared], 1000.0)
        assert shared.active_flows == {flow, other} and other.rate == 200.0
        sim.run_until_idle()
        assert sim.now == pytest.approx(10.0)
        assert fresh.active_flows == set() and type(fresh.active_flows) is set

    def test_cancel_on_a_never_used_link_is_a_noop(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)
        flow = net.start_flow([link], 0.0)  # zero bytes: never attached
        net.cancel_flow(flow)
        assert link.active_flows is flows_module._NO_FLOWS
        sim.run_until_idle()
        assert flow.done and net.completed_count == 1

    def test_transferred_accounting(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)
        flow = net.start_flow([link], 1000.0)
        sim.run(until=4.0)
        net._settle()
        assert flow.size - flow.remaining == pytest.approx(400.0)
        assert flow.remaining == pytest.approx(600.0)

    def test_utilization(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)
        net.start_flow([link], 1000.0)
        assert link.utilization == pytest.approx(1.0)

    def test_bad_link_capacity_rejected(self):
        with pytest.raises(FlowError):
            Link("bad", 0.0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_link_capacity_rejected(self, capacity):
        # NaN is neither <= 0 nor > 0; at the parent it constructed, and
        # the first flow over it died with "no bottleneck found"
        with pytest.raises(FlowError, match="'bad' capacity must be finite and positive"):
            Link("bad", capacity)

    def test_paper_bus_contention_end_to_end(self, sim):
        """Two DMA streams on one bus: aggregate bounded by the bus."""
        net = FlowNetwork(sim)
        bus = Link("bus", 1850.0)
        mx, elan = Link("mx", 1210.0), Link("elan", 860.0)
        done = {}
        size = 4_000_000.0
        net.start_flow([bus, mx], size, on_complete=lambda f: done.setdefault("mx", sim.now))
        net.start_flow([bus, elan], size, on_complete=lambda f: done.setdefault("elan", sim.now))
        sim.run_until_idle()
        total_bw = 2 * size / max(done.values())
        assert 1600 <= total_bw <= 1850


class TestIncrementalReallocation:
    """The fast path: only the link-connected component is recomputed,
    and bit-identical rates keep their scheduled completion events."""

    def test_disjoint_flow_start_schedules_one_event(self, sim):
        net = FlowNetwork(sim)
        l1, l2, l3 = Link("l1", 100.0), Link("l2", 100.0), Link("l3", 100.0)
        fa = net.start_flow([l1], 1000.0)
        fb = net.start_flow([l2], 1000.0)
        ev_a, ev_b = fa._completion_ev, fb._completion_ev
        scheduled_before = sim.events_scheduled
        resched_before = net.reschedule_count
        net.start_flow([l3], 1000.0)
        # the third flow shares no link: exactly one new completion event,
        # the first two keep the exact event objects they already had
        assert sim.events_scheduled == scheduled_before + 1
        assert net.reschedule_count == resched_before + 1
        assert fa._completion_ev is ev_a
        assert fb._completion_ev is ev_b
        sim.run_until_idle()
        assert net.completed_count == 3

    def test_component_propagates_through_shared_links(self, sim):
        # X{L1}, Y{L1,L2}, Z{L2}: Z shares no link with X, yet cancelling
        # X must still update Z (the component is transitive through Y).
        net = FlowNetwork(sim)
        l1, l2 = Link("l1", 10.0), Link("l2", 12.0)
        fx = net.start_flow([l1], 1e6)
        fy = net.start_flow([l1, l2], 1e6)
        fz = net.start_flow([l2], 1e6)
        assert (fx.rate, fy.rate, fz.rate) == (5.0, 5.0, 7.0)
        net.cancel_flow(fx)
        assert (fy.rate, fz.rate) == (6.0, 6.0)

    def test_unchanged_rates_keep_completion_events(self, sim):
        # A{L1}, B{L1,L2} at 5 each; starting C{L2} is in their component
        # but leaves their rates bit-identical -> no cancel/reschedule.
        net = FlowNetwork(sim)
        l1, l2 = Link("l1", 10.0), Link("l2", 100.0)
        fa = net.start_flow([l1], 1e6)
        fb = net.start_flow([l1, l2], 1e6)
        ev_a, ev_b = fa._completion_ev, fb._completion_ev
        resched_before = net.reschedule_count
        fc = net.start_flow([l2], 1e6)
        assert fa._completion_ev is ev_a
        assert fb._completion_ev is ev_b
        assert net.reschedule_count == resched_before + 1
        assert fc.rate == pytest.approx(95.0)
        sim.run_until_idle()
        assert net.completed_count == 3

    def test_results_match_full_reallocation(self, sim):
        """Completion times with the incremental path equal a from-scratch
        allocation at every step (8 staggered flows, shared bus)."""
        net = FlowNetwork(sim)
        bus = Link("bus", 1000.0)
        rails = [Link(f"r{i}", 400.0) for i in range(3)]
        done = {}
        for i in range(8):
            net.start_flow(
                [bus, rails[i % 3]],
                10_000.0 + 100 * i,
                on_complete=lambda f: done.setdefault(f.fid, sim.now),
            )
        sim.run_until_idle()
        assert len(done) == 8
        # invariant check: every completion respects link capacities
        assert max(done.values()) >= 8 * 10_000.0 / 1000.0


class TestRateTable:
    """Allocations are remembered per component shape (the ordered tuple
    of paths); a hit must hand back the very floats a recomputation
    would — every comparison below is exact."""

    def test_repeated_shape_is_computed_once(self, sim, monkeypatch):
        calls = []
        real = flows_module.max_min_rates
        monkeypatch.setattr(
            flows_module, "max_min_rates", lambda flows: calls.append(1) or real(flows)
        )
        net = FlowNetwork(sim)
        bus, mx = Link("bus", 1850.0), Link("mx", 1210.0)
        for _ in range(5):
            flow = net.start_flow([bus, mx], 4096.0)
            assert flow.rate == 1210.0
            sim.run_until_idle()
        # one computation; the other four starts are table hits
        assert len(calls) == 1 and net.completed_count == 5

    def test_flow_order_is_part_of_the_key(self, sim):
        net = FlowNetwork(sim)
        bus = Link("bus", 1850.0)
        mx, elan = Link("mx", 1210.0), Link("elan", 860.0)
        pa, pb = (bus, mx), (bus, elan)
        fa, fb = net.start_flow(pa, 1e6), net.start_flow(pb, 1e6)
        assert net._rate_table[(pa, pb)] == (fa.rate, fb.rate)
        sim.run_until_idle()
        fb, fa = net.start_flow(pb, 1e6), net.start_flow(pa, 1e6)
        assert net._rate_table[(pb, pa)] == (fb.rate, fa.rate)
        # two entries, each holding what its own computation returned
        assert {(pa, pb), (pb, pa)} <= set(net._rate_table)
        for shape in ((pa, pb), (pb, pa)):
            flows = [mkflow(i, *path) for i, path in enumerate(shape)]
            fresh = max_min_rates(flows)
            assert net._rate_table[shape] == tuple(fresh[f] for f in flows)

    def test_table_is_bounded_and_survives_its_own_clearing(self, sim):
        bound = flows_module._RATE_TABLE_MAX
        net = FlowNetwork(sim)
        links = [Link(f"l{i}", 100.0 + 7 * i) for i in range(10)]
        shapes = list(itertools.islice(itertools.permutations(links, 4), 5000))
        assert len(set(shapes)) == 5000 > bound
        for _pass in range(2):
            for path in shapes:
                flow = net.start_flow(path, 1e6)
                assert flow.rate == min(link.capacity for link in path)
                net.cancel_flow(flow)
                assert len(net._rate_table) <= bound
        assert not net.active_flows

    def test_long_components_are_computed_every_time(self, sim):
        longest = flows_module._RATE_TABLE_FLOWS
        net = FlowNetwork(sim)
        link = Link("shared", 1000.0)
        flows = [net.start_flow([link], 1e6) for _ in range(longest + 3)]
        assert {len(shape) for shape in net._rate_table} == set(range(1, longest + 1))
        assert all(f.rate == 1000.0 / len(flows) for f in flows)

    def test_refresh_forgets_rates_computed_from_old_capacities(self, sim):
        net = FlowNetwork(sim)
        link = Link("l", 100.0)
        first = net.start_flow([link], 1000.0)
        assert first.rate == 100.0
        sim.run_until_idle()
        link.capacity = 40.0
        net.refresh()  # nothing active: still has to drop the table
        again = net.start_flow([link], 1000.0)
        assert again.rate == 40.0
        link.capacity = 80.0
        net.refresh()  # mid-transfer: the live flow is re-rated as well
        assert again.rate == 80.0
        sim.run_until_idle()
        assert net.completed_count == 2
