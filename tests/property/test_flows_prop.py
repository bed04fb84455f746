"""Property-based tests of the max-min fair allocator (DESIGN.md §6)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Flow, FlowNetwork, Link, Simulator, max_min_rates

_EPS = 1e-6


@st.composite
def flow_scenarios(draw):
    """A random set of links and flows over them."""
    n_links = draw(st.integers(min_value=1, max_value=6))
    links = [
        Link(f"l{i}", draw(st.floats(min_value=10.0, max_value=5000.0)))
        for i in range(n_links)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for fid in range(n_flows):
        path_idx = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=n_links,
                unique=True,
            )
        )
        path = [links[i] for i in path_idx]
        flows.append(Flow(fid, path, 1000.0, None, 0.0, 0.0))
    return links, flows


@given(flow_scenarios())
@settings(max_examples=200, deadline=None)
def test_conservation_no_link_oversubscribed(scenario):
    links, flows = scenario
    rates = max_min_rates(flows)
    for link in links:
        used = sum(r for f, r in rates.items() if link in f.path)
        assert used <= link.capacity + _EPS


@given(flow_scenarios())
@settings(max_examples=200, deadline=None)
def test_every_flow_gets_positive_rate(scenario):
    _links, flows = scenario
    rates = max_min_rates(flows)
    assert set(rates) == set(flows)
    for rate in rates.values():
        assert rate > 0


@given(flow_scenarios())
@settings(max_examples=200, deadline=None)
def test_bottleneck_condition(scenario):
    """Max-min optimality: every flow crosses a saturated link on which
    its rate is maximal among the link's flows."""
    links, flows = scenario
    rates = max_min_rates(flows)
    for f in flows:
        ok = False
        for link in f.path:
            used = sum(rates[g] for g in flows if link in g.path)
            saturated = used >= link.capacity - 1e-3
            maximal = all(
                rates[f] >= rates[g] - 1e-6 for g in flows if link in g.path
            )
            if saturated and maximal:
                ok = True
                break
        assert ok, f"flow {f.fid} could be increased"


@given(st.floats(min_value=10.0, max_value=5000.0), st.floats(min_value=10.0, max_value=5000.0))
@settings(max_examples=50, deadline=None)
def test_single_flow_work_conserving(cap_a, cap_b):
    a, b = Link("a", cap_a), Link("b", cap_b)
    f = Flow(1, (a, b), 100.0, None, 0.0, 0.0)
    assert math.isclose(max_min_rates([f])[f], min(cap_a, cap_b), rel_tol=1e-9)


@given(
    st.lists(st.floats(min_value=1.0, max_value=1e7), min_size=1, max_size=8),
    st.floats(min_value=10.0, max_value=3000.0),
)
@settings(max_examples=80, deadline=None)
def test_dynamic_simulation_conserves_bytes(sizes, capacity):
    """Every started flow completes and the byte totals add up."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = Link("shared", capacity)
    completed = []
    for i, size in enumerate(sizes):
        net.start_flow([link], size, on_complete=lambda f: completed.append(f))
    sim.run_until_idle()
    assert len(completed) == len(sizes)
    assert math.isclose(net.total_bytes_completed, sum(sizes), rel_tol=1e-9)
    assert link.active_flows == set()
    # no flow can finish before the ideal aggregate time
    ideal = sum(sizes) / capacity
    assert sim.now >= ideal - 1e-6


@given(
    st.lists(st.floats(min_value=1000.0, max_value=1e6), min_size=2, max_size=5),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_staggered_starts_all_complete(sizes, data):
    """Flows that join at random times still drain completely."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = Link("shared", 500.0)
    done = []
    starts = sorted(
        data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0),
                min_size=len(sizes),
                max_size=len(sizes),
            )
        )
    )
    for t, size in zip(starts, sizes):
        sim.at(t, lambda s=size: net.start_flow([link], s, on_complete=done.append))
    sim.run_until_idle()
    assert len(done) == len(sizes)
    assert math.isclose(net.total_bytes_completed, sum(sizes))


# --------------------------------------------------------------------- #
# the allocation table (FlowNetwork._rate_table) against the pure function
# --------------------------------------------------------------------- #
class _AuditedNetwork(FlowNetwork):
    """Checks every reallocation against a fresh ``max_min_rates``."""

    def _reallocate(self, origin=None):
        super()._reallocate(origin)
        affected = self._component(origin) if origin is not None else list(self._flows)
        fresh = max_min_rates(affected)
        assert [f.rate for f in affected] == [fresh[f] for f in affected]


class _ForgetfulNetwork(FlowNetwork):
    """The reference run: the table is emptied before each reallocation."""

    def _reallocate(self, origin=None):
        self._rate_table.clear()
        super()._reallocate(origin)


@st.composite
def flow_histories(draw):
    """Link capacities plus a start / cancel / advance script over them.

    Paths come from a small pool, so component shapes repeat and the
    table is hit as well as filled.
    """
    n_links = draw(st.integers(min_value=1, max_value=6))
    capacities = draw(
        st.lists(
            st.floats(min_value=10.0, max_value=5000.0),
            min_size=n_links, max_size=n_links,
        )
    )
    pool = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1, max_size=3, unique=True,
            ),
            min_size=1, max_size=4,
        )
    )
    step = st.one_of(
        st.tuples(
            st.just("start"),
            st.sampled_from(pool),
            st.floats(min_value=1.0, max_value=1e6),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=500.0)),
    )
    return capacities, draw(st.lists(step, min_size=1, max_size=40))


def _replay(network_cls, capacities, script):
    """Run ``script``; returns per-flow (drain time, completion time)."""
    sim = Simulator()
    net = network_cls(sim)
    links = [Link(f"l{i}", c) for i, c in enumerate(capacities)]
    started, log = [], {}
    for op, *args in script:
        if op == "start":
            path_idx, size = args
            index = len(started)
            started.append(
                net.start_flow(
                    [links[i] for i in path_idx],
                    size,
                    on_complete=lambda f, k=index: log.setdefault(("done", k), sim.now),
                    on_drain=lambda f, k=index: log.setdefault(("drain", k), sim.now),
                )
            )
        elif op == "cancel":
            if started:
                net.cancel_flow(started[args[0] % len(started)])
        else:
            sim.run(until=sim.now + args[0])
        log[("rates", len(log))] = [f.rate for f in net._flows]
    sim.run_until_idle()
    log["end"] = sim.now
    return log


@given(flow_histories())
@settings(max_examples=150, deadline=None)
def test_remembered_rates_equal_recomputed_rates(history):
    """After every step each active flow's rate is what the pure function
    returns for its component, and every drain and completion time equals
    that of a run that never reuses an allocation — exactly."""
    capacities, script = history
    audited = _replay(_AuditedNetwork, capacities, script)
    assert audited == _replay(_ForgetfulNetwork, capacities, script)
