"""``FlowNetwork`` against an independent max-min reference.

The reference below knows nothing of ``repro.sim.flows``: it is the
textbook fluid model, stepped from event to event.  Between two events
(a flow starts, a flow drains) every active flow moves at its max-min
fair rate, found by progressive filling over *all* active flows.  The
network under test instead recomputes only the component of links that
a change touches, skips the completion events whose rate came out the
same, and replays remembered allocations by component shape.  Both must
drain every flow at the same instant, within ``rel_tol=1e-9``: that pins
the incremental reallocation and the allocation memo to numbers, where
``tests/property/test_flows_prop.py`` checks invariants of one
allocation.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Link, Simulator
from repro.sim.flows import make_flow_network


def _max_min(capacity, paths):
    """Progressive filling: ``{flow: rate}`` for the flows ``paths`` maps
    to the link indices they cross."""
    residual = list(capacity)
    unfrozen = set(paths)
    rates = {}
    while unfrozen:
        share, bottleneck = math.inf, []
        for link, cap in enumerate(residual):
            users = [f for f in unfrozen if link in paths[f]]
            if users and cap / len(users) < share:
                share, bottleneck = cap / len(users), users
        for f in bottleneck:
            rates[f] = share
            unfrozen.discard(f)
            for link in paths[f]:
                residual[link] -= share
    return rates


def reference_drain_times(capacity, flows):
    """Drain time of each flow ``(start, size, path)`` on links of the
    given ``capacity`` (bytes per µs), max-min shared at every instant."""
    remaining = {}
    starts = sorted(range(len(flows)), key=lambda f: flows[f][0])
    drained = [None] * len(flows)
    now = 0.0
    while starts or remaining:
        rates = _max_min(capacity, {f: flows[f][2] for f in remaining})
        t_drain = min((now + remaining[f] / rates[f] for f in remaining), default=math.inf)
        t_start = flows[starts[0]][0] if starts else math.inf
        t = min(t_drain, t_start)
        for f in list(remaining):
            if now + remaining[f] / rates[f] == t:
                drained[f] = t
                del remaining[f]
            else:
                remaining[f] -= rates[f] * (t - now)
        now = t
        while starts and flows[starts[0]][0] == now:
            f = starts.pop(0)
            remaining[f] = flows[f][1]
    return drained


def network_drain_times(capacity, flows):
    """The same scenario on ``FlowNetwork`` over the heap event core."""
    sim = Simulator(backend="heap")
    net = make_flow_network(sim)
    links = [Link(f"l{i}", cap) for i, cap in enumerate(capacity)]
    drained = [None] * len(flows)

    def start(f):
        _, size, path = flows[f]
        net.start_flow(
            [links[i] for i in path], size, tag=f,
            on_drain=lambda flow: drained.__setitem__(flow.tag, sim.now),
        )

    for f, (at, _, _) in enumerate(flows):
        sim.schedule(at, start, f)
    sim.run()
    return drained


@st.composite
def scenarios(draw):
    n_links = draw(st.integers(1, 6))
    capacity = [draw(st.floats(10.0, 5000.0)) for _ in range(n_links)]
    flows = [
        (
            draw(st.sampled_from([0.0, 50.0]) | st.floats(0.0, 2000.0)),
            draw(st.floats(1.0, 1e6)),
            tuple(draw(st.lists(st.integers(0, n_links - 1), min_size=1, unique=True))),
        )
        for _ in range(draw(st.integers(1, 8)))
    ]
    return capacity, flows


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_flow_network_drains_like_the_reference(scenario):
    capacity, flows = scenario
    want = reference_drain_times(capacity, flows)
    got = network_drain_times(capacity, flows)
    assert None not in got
    for f, (w, g) in enumerate(zip(want, got)):
        assert math.isclose(g, w, rel_tol=1e-9), (f, flows[f], g, w)


def test_a_drain_reaches_the_transitive_component():
    """Flows 0 and 2 share no link; flow 1 links them.  When flow 0
    drains at 20 µs, flow 1 doubles to 100 and flow 2 drops from 250 to
    200: an allocation that revisits only flow 0's direct link-sharers
    leaves flow 2 too fast."""
    capacity = [100.0, 300.0]
    flows = [(0.0, 1000.0, (0,)), (0.0, 5000.0, (0, 1)), (0.0, 10000.0, (1,))]
    want = reference_drain_times(capacity, flows)
    assert want == [20.0, 60.0, 45.0]
    got = network_drain_times(capacity, flows)
    assert all(math.isclose(g, w, rel_tol=1e-9) for g, w in zip(got, want)), got
