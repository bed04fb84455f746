"""Laws of the fault layer.

No recorded number: every expectation below is another run of the same
model (fault-free against faulted, heap against native) or a formula over
the platform (``Platform.wire_latency_us``).  The fault layer adds its
verdict on a packet and nothing else, so

1. a plan that never fires changes nothing — not a completion time, not
   an engine, not a metric outside ``fault.*``;
2. a degraded rail is degraded for eager and bulk traffic alike, by the
   same wire latency (rail + switch hops);
3. a rail lost in the middle of an allreduce never costs the answer;
4. both event cores agree on a faulted run.
"""

import pytest

from repro.core.session import Session
from repro.core.strategies.checker import CheckedStrategy
from repro.faults.chaos import session_violations
from repro.faults.plan import FaultEvent, FaultPlan
from repro.hardware.presets import paper_platform
from repro.hardware.topology import topology_platform
from repro.mpi.collectives import multilane_allreduce
from repro.mpi.comm import Communicator
from repro.sim.backend import available_backends
from repro.util.units import KB

TOPOLOGIES = ("fat_tree", "dragonfly", "rail_opt")
#: long after any traffic below; runs stop at ``HORIZON_US``
NEVER_US = 1e9
HORIZON_US = 1e6


def _recorded_flows(session):
    """Every DMA flow the session starts from now on, as ``(start time,
    start_flow keyword arguments)``."""
    flownet = session.platform.flownet
    start_flow, flows = flownet.start_flow, []

    def recording(*args, **kwargs):
        flows.append((session.sim.now, kwargs))
        return start_flow(*args, **kwargs)

    flownet.start_flow = recording
    return flows


def _platform(name, n_nodes):
    return paper_platform() if name == "paper" else topology_platform(name, n_nodes)


def _counter(snapshot, name):
    return sum(
        v for k, v in snapshot.items()
        if isinstance(v, (int, float)) and (k == name or k.startswith(name + "{"))
    )


# --------------------------------------------------------------------- #
# 1. the inert plan
# --------------------------------------------------------------------- #
def _point_to_point(spec, plan):
    """Eager and rendezvous messages among the first, middle and last node;
    returns every request's completion time, the engines built and the
    metrics, of a run stopped at ``HORIZON_US``."""
    session = Session(spec, strategy="aggreg_multirail", faults=plan)
    nodes = sorted({0, spec.n_nodes // 2, spec.n_nodes - 1})
    requests = []
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            for tag, size in enumerate((64, 4 * KB, 64 * KB, 256 * KB)):
                requests.append(session.interface(dst).irecv(src, tag))
                requests.append(session.interface(src).isend(dst, tag, size))
    session.run(until=HORIZON_US)
    assert all(r.done for r in requests)
    return (
        [r.completed_at for r in requests],
        session.engines.built_count,
        session.sim.events_executed,
        {k: v for k, v in session.metrics.snapshot().items() if not k.startswith("fault.")},
    )


@pytest.mark.parametrize(
    "name,n_nodes",
    [("paper", 2)] + [(name, p) for name in TOPOLOGIES for p in (16, 64)],
)
def test_a_plan_that_never_fires_changes_nothing(name, n_nodes):
    spec = _platform(name, n_nodes)
    inert = FaultPlan([FaultEvent("drop", NEVER_US, spec.rails[-1].name, count=1)])
    times, built, events, metrics = _point_to_point(spec, None)
    f_times, f_built, f_events, f_metrics = _point_to_point(spec, inert)
    assert f_times == times
    assert f_built == built == min(3, n_nodes)
    assert f_events == events
    assert f_metrics == metrics


# --------------------------------------------------------------------- #
# 2. eager and bulk agree on the wire
# --------------------------------------------------------------------- #
def _one_way(spec, plan, size, rail_name):
    """One message from node 0 to the last node on one rail, sent well
    after any detection wake-up has settled: ``(receive completion time,
    extra_latency of every DMA flow started)``."""
    session = Session(
        spec, strategy="single_rail", strategy_opts={"rail": rail_name}, faults=plan
    )
    flows = _recorded_flows(session)
    dst = spec.n_nodes - 1
    recv = session.interface(dst).irecv(0, 1)

    def sender():
        yield 500.0
        session.interface(0).isend(dst, 1, size)

    session.spawn(sender())
    session.run(until=HORIZON_US)
    assert recv.done
    return recv.completed_at, [kwargs["extra_latency"] for _, kwargs in flows]


@pytest.mark.parametrize("k", [1.5, 4.0])
@pytest.mark.parametrize("name", ("paper",) + TOPOLOGIES)
def test_a_degraded_rail_is_slower_by_the_same_wire_for_eager_and_bulk(name, k):
    spec = _platform(name, 64)
    last = spec.n_nodes - 1
    for rail_index, rail in enumerate(spec.rails):
        wire = Session(spec).platform.wire_latency_us(rail_index, 0, last)
        assert wire >= rail.lat_us
        degrade = FaultPlan(
            [FaultEvent("degrade", 0.0, rail.name, duration_us=NEVER_US, factor=1.0, lat_factor=k)]
        )
        # eager: one wrapper, one crossing of the wire
        base, _ = _one_way(spec, None, 64, rail.name)
        slow, _ = _one_way(spec, degrade, 64, rail.name)
        assert slow - base == pytest.approx((k - 1) * wire, rel=1e-9)
        # bulk: the chunk's propagation delay, as handed to the flow network
        _, (base_lat,) = _one_way(spec, None, 256 * KB, rail.name)
        _, (slow_lat,) = _one_way(spec, degrade, 256 * KB, rail.name)
        assert base_lat == wire
        assert slow_lat - base_lat == pytest.approx((k - 1) * wire, rel=1e-12)


def test_the_topologies_above_do_add_switch_hops():
    """Guards law 2 against a vacuous pass: between the farthest nodes the
    wire is longer than the rail's own latency on every topology."""
    for name in TOPOLOGIES:
        spec = _platform(name, 64)
        platform = Session(spec).platform
        assert platform.wire_latency_us(0, 0, 63) > spec.rails[0].lat_us


# --------------------------------------------------------------------- #
# 3. a rail lost mid-allreduce
# --------------------------------------------------------------------- #
#: two lanes of 4096 doubles: every lane message is a 32 KB rendezvous
VECTOR_LEN = 8192


def _allreduce(spec, plan=None, backend=None):
    """``multilane_allreduce`` of rank-dependent vectors on every node,
    strategies checked; returns the drained session, what each rank holds,
    when each DMA flow started (rail name, start, size) and when the last
    rank finished."""
    session = Session(
        spec,
        strategy=CheckedStrategy.wrapping("aggreg_multirail", record_only=True),
        faults=plan,
        backend=backend,
    )
    flows = _recorded_flows(session)
    comm = Communicator(session, name="laws")
    held, done_us = {}, []

    def rank_body(rank):
        values = [float(rank + 1 + (i % 7)) for i in range(VECTOR_LEN)]
        held[rank] = yield from multilane_allreduce(comm.endpoint(rank), values)
        done_us.append(session.sim.now)

    procs = [session.spawn(rank_body(r), name=f"laws.r{r}") for r in range(spec.n_nodes)]
    session.run_until_idle()
    assert all(p.done for p in procs), "allreduce deadlocked"
    flows = [(kwargs["tag"][0], at, kwargs["size"]) for at, kwargs in flows]
    return session, held, flows, max(done_us)


def _assert_right_and_clean(session, held, n_nodes):
    ranks = n_nodes * (n_nodes + 1) // 2
    expected = [float(ranks + n_nodes * (i % 7)) for i in range(VECTOR_LEN)]
    assert sorted(held) == list(range(n_nodes))
    for rank, vector in held.items():
        assert vector == expected, f"rank {rank} holds a wrong vector"
    assert session_violations(session) == []


def _mid_transfer(spec, flows):
    """The middle DMA flow of a run: its rail, and a time at which it is
    half-way down the wire."""
    name, start, size = flows[len(flows) // 2]
    rail = next(r for r in spec.rails if r.name == name)
    return rail, start + size / rail.bw_MBps / 2


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_a_rail_lost_mid_allreduce_never_costs_the_answer(name):
    spec = _platform(name, 16)
    base, held, flows, base_done = _allreduce(spec)
    _assert_right_and_clean(base, held, 16)
    # cut the rail while one of its chunks is on the wire, for good
    rail, mid = _mid_transfer(spec, flows)
    plan = FaultPlan([FaultEvent("down", mid, rail.name, duration_us=NEVER_US)])
    session, held, _, done = _allreduce(spec, plan)
    _assert_right_and_clean(session, held, 16)
    snap = session.metrics.snapshot()
    assert _counter(snap, "fault.lost.chunks") > 0
    assert _counter(snap, "fault.retries") > 0
    # finished on the rail that is left, long before the lost one is back (not
    # necessarily later than without: the rail that is left may be the faster)
    assert mid < done < 10 * base_done


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_drops_and_a_short_outage_mid_allreduce_lose_wrappers_and_chunks(name):
    spec = _platform(name, 16)
    _, _, flows, _ = _allreduce(spec)
    rail, mid = _mid_transfer(spec, flows)
    plan = FaultPlan(
        [FaultEvent("down", mid, rail.name, duration_us=40.0)]
        + [FaultEvent("drop", mid + 60.0, r.name, count=3) for r in spec.rails]
    )
    session, held, _, _ = _allreduce(spec, plan)
    _assert_right_and_clean(session, held, 16)
    snap = session.metrics.snapshot()
    lost_eager = _counter(snap, "fault.lost.eager")
    lost_chunks = _counter(snap, "fault.lost.chunks")
    assert lost_eager > 0 and lost_chunks > 0
    assert _counter(snap, "fault.retries") == lost_eager + lost_chunks
    assert all(d.health == "up" for e in session.engines.built() for d in e.drivers)


# --------------------------------------------------------------------- #
# 4. heap and native
# --------------------------------------------------------------------- #
def test_heap_and_native_agree_on_a_faulted_allreduce():
    if "native" not in available_backends():
        pytest.skip("native core not available")
    spec = _platform("rail_opt", 16)
    _, _, flows, _ = _allreduce(spec)
    rail, mid = _mid_transfer(spec, flows)
    plan = FaultPlan(
        [
            FaultEvent("down", mid, rail.name, duration_us=200.0),
            FaultEvent("drop", mid, spec.rails[0].name, count=2),
        ]
    )
    digests = []
    for backend in ("heap", "native"):
        session, held, flows, done = _allreduce(spec, plan, backend=backend)
        digests.append(
            (done, session.sim.now, session.sim.events_executed, held, flows,
             session.metrics.snapshot())
        )
    assert digests[0] == digests[1]
