"""The incremental reallocation loses nothing on multi-hop topologies.

The topology layer threads inter-switch links into DMA paths, so flow
paths grow from the historical 3 links (bus, wire, bus) to 5+, and one
network holds many link-disjoint groups of flows at once.
:class:`FlowNetwork` recomputes rates only for the link-connected
component of the flow that started, drained or was cancelled.  That
shortcut is exact only if max-min allocation decomposes across
components *to the last bit*, so this file drives randomized multi-hop
programs through the real network and through a reference that
recomputes ``max_min_rates`` over **all** active flows at every change,
and compares the full observable trace with ``==``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FlowNetwork, Link, Simulator


class FullRecomputeNetwork(FlowNetwork):
    """The reference: every change reallocates every active flow."""

    def _component(self, origin):
        return list(self._flows)


# one op: (src leaf, dst leaf, size, run-ahead, cancel) — paths go
# host-bus -> up-link -> down-link -> host-bus, sharing the up/down links
# between flows exactly like the rail_opt plan does.  ``cancel`` picks one
# of the flows started so far (a no-op when it has already drained).
_topo_programs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # src leaf
        st.integers(min_value=0, max_value=3),  # dst leaf
        st.floats(min_value=10.0, max_value=4000.0),  # size
        st.floats(min_value=0.0, max_value=5.0),  # run-ahead
        st.one_of(st.none(), st.integers(min_value=0, max_value=19)),  # cancel
    ),
    min_size=1,
    max_size=20,
)


def _run_topology_network(cls, program):
    sim = Simulator(backend="heap")
    net = cls(sim)
    buses = [Link(f"bus{i}", 900.0) for i in range(4)]
    ups = [Link(f"up.l{i}", 250.0 * (i + 1)) for i in range(4)]
    downs = [Link(f"down.l{i}", 250.0 * (i + 1)) for i in range(4)]
    started, rates, completions = [], [], []

    def record(flow):
        completions.append((sim.now, flow.fid))

    for src, dst, size, ahead, cancel in program:
        # multi-hop path mirroring Platform.dma_path with a rail_opt plan
        path = [buses[src], ups[src], downs[dst], buses[dst]]
        started.append(net.start_flow(path, size=size, on_complete=record))
        if cancel is not None:
            net.cancel_flow(started[cancel % len(started)])
        # every active flow's rate, not just the new one's: a start or a
        # cancel must leave the other components exactly where they were
        rates.append([(f.fid, f.rate) for f in net._flows])
        sim.run(until=sim.now + ahead)
    sim.run_until_idle()
    return (
        rates,
        completions,
        net.completed_count,
        net.reschedule_count,
        sim.events_scheduled,
        sim.now,
    )


@given(_topo_programs)
@settings(max_examples=150, deadline=None)
def test_incremental_matches_full_recompute_on_multihop_paths(program):
    incremental = _run_topology_network(FlowNetwork, program)
    assert incremental == _run_topology_network(FullRecomputeNetwork, program)
    # the shortcut is not vacuous: nothing was left undelivered
    _rates, completions, completed = incremental[:3]
    assert completed == len(completions) <= len(program)
