"""What a node holds, as counts and bytes, not seconds.

The rule (DESIGN.md §6 "What a node costs"): per-node state is *made on
first use, shared when identical* — a node costs what it did, not what it
might do.  Two deterministic measures of a finished collectives run, the
session still alive: collector-tracked objects per node and
``tracemalloc`` bytes per node.

Eight ``multilane_allreduce`` + one ``multilane_barrier`` on
``rail_optimized_platform(P)``, per node (objects / KB):

    ======  ===========  ==================  ================
    P       state built  ``(peer, tag)``     one int channel
            up front     channel keys        key (this tree)
    ======  ===========  ==================  ================
    64      85.6 / 22.1  48.3 / 12.4         48.2 / 11.5
    256     90.3 / 23.4  47.3 / 12.8         47.2 / 11.6
    1024    96.1 / 27.0  47.5 / 15.5         47.5 / 13.1
    ======  ===========  ==================  ================

(native core, CPython 3.11; the heap core reads within 0.6 KB.)  An int
channel key holds no tuple and no private copy of the peer's int, and a
dict of ints is not tracked; the step at P = 1024 is one dict resize on
each side: 26 channels per node outgrow a 32-slot table
(``checks/test_node_cost_p1024.py`` gates that row).  The object ceiling
sits 17 % above the P = 256 row, the byte ceiling 7 %, under the tuple keys.
"""

import gc
import tracemalloc

import pytest

from repro import Session
from repro.core import rendezvous, scheduler
from repro.core.strategies.base import NO_SEGMENTS
from repro.hardware.topology import rail_optimized_platform
from repro.mpi.collectives import multilane_allreduce, multilane_barrier
from repro.mpi.comm import Communicator
from repro.sim import flows
from repro.sim.backend import available_backends

OBJECTS_PER_NODE = 55.5
BYTES_PER_NODE = 12_400


def _collectives(n_nodes, backend):
    """Run the workload; ``(session, tracked objects, traced bytes)`` per node."""
    gc.collect()
    tracemalloc.start()
    objects_before = len(gc.get_objects())
    bytes_before = tracemalloc.get_traced_memory()[0]
    session = Session(
        rail_optimized_platform(n_nodes), strategy="aggreg_multirail", backend=backend
    )
    comm = Communicator(session)
    expected = [float(n_nodes * (n_nodes - 1) // 2)] * 8

    def rank_body(rank):
        ep = comm.endpoint(rank)
        for _ in range(8):
            assert (yield from multilane_allreduce(ep, [float(rank)] * 8)) == expected
        yield from multilane_barrier(ep)

    procs = [session.spawn(rank_body(r)) for r in range(n_nodes)]
    session.run_until_idle()
    assert all(p.done for p in procs)
    del procs
    gc.collect()
    grown_bytes = tracemalloc.get_traced_memory()[0] - bytes_before
    tracemalloc.stop()
    grown_objects = len(gc.get_objects()) - objects_before
    return session, grown_objects / n_nodes, grown_bytes / n_nodes


@pytest.mark.parametrize("backend", available_backends())
def test_a_node_stays_under_its_object_and_byte_ceilings(backend):
    _small, _objects64, bytes64 = _collectives(64, backend)
    del _small
    session, objects256, bytes256 = _collectives(256, backend)
    assert session.engines.built_count == 256
    assert objects256 <= OBJECTS_PER_NODE, f"{objects256:.1f} tracked objects per node"
    assert bytes256 <= BYTES_PER_NODE, f"{bytes256:.0f} traced bytes per node"
    # a per-node cost that grows with P is a per-pair table come back
    assert abs(bytes256 - bytes64) <= 0.10 * bytes64, (
        f"{bytes64:.0f} -> {bytes256:.0f} bytes per node"
    )


def test_a_node_nothing_talked_to_owns_no_container():
    """Made on first use: an idle node has no flow set, no queue and no
    ``Link`` — asserted by identity with the shared sentinels, so the next
    eager ``deque()`` in a constructor fails here."""
    session = Session(rail_optimized_platform(16), strategy="split_balance")
    platform = session.platform
    for node in range(16):
        host = platform.host(node)
        assert host._bus_tx is None and host._bus_rx is None
        for rail in range(platform.n_rails):
            nic = platform.nic(rail, node)
            assert nic._tx_link is None and nic._rx_link is None
            assert nic.rx_queue == [] and type(nic.rx_queue) is list
    assert all(plan.links_created == 0 for plan in platform.topologies)
    assert session.engines.built_count == 1  # node 0, built to validate the strategy
    engine = session.engine(5)
    assert engine._seq_out == {}
    assert engine._retrans is scheduler._NO_RETRANS
    assert engine.rdv._done_in is rendezvous._NO_KEYS
    assert engine.strategy._small is NO_SEGMENTS and engine.strategy._large is NO_SEGMENTS
    assert vars(engine.matching)["_recv_seq"] == {}
    # ... and a link a path was built over, but no flow crossed, has no set
    path = platform.dma_path(0, 5, 6)
    assert all(link.active_flows is flows._NO_FLOWS for link in path)
    assert path[1] is platform.nic(0, 5).tx_link is platform.nic(0, 5)._tx_link


def test_a_faulted_idle_node_costs_nothing():
    """O(active) for the fault layer too: a degrade — applied, detected,
    cleared, detected again — on an idle P=1024 platform builds no engine
    beyond node 0, makes no ``Link`` and runs its own handful of events
    (1024 engines, 2048 links and 5 124 events before the injector stopped
    walking the nodes)."""
    from repro.faults.plan import FaultEvent, FaultPlan

    spec = rail_optimized_platform(1024)
    plan = FaultPlan(
        [FaultEvent("degrade", 100.0, spec.rails[0].name, duration_us=200.0,
                    factor=0.5, lat_factor=2.0)]
    )
    session = Session(spec, faults=plan)
    session.run_until_idle()
    assert session.sim.now >= 300.0 + plan.detect_us
    assert session.engines.built_count == 1
    platform = session.platform
    assert all(f._links == [] for f in platform.fabrics)
    assert all(
        nic._tx_link is None and nic._rx_link is None
        for rail in range(platform.n_rails)
        for nic in (platform.nic(rail, node) for node in range(1024))
    )
    assert session.sim.events_executed <= 20
    # ... and a link made while the rail is degraded is born at what the rail has now
    session = Session(spec, faults=plan)
    session.run(until=150.0)
    assert session.platform.nic(0, 7).tx_link.capacity == spec.rails[0].bw_MBps * 0.5
    assert session.platform.nic(1, 7).tx_link.capacity == spec.rails[1].bw_MBps
    session.run(until=400.0)
    assert session.platform.nic(0, 7).tx_link.capacity == spec.rails[0].bw_MBps
    assert session.platform.nic(0, 8).rx_link.capacity == spec.rails[0].bw_MBps


def test_an_engine_first_touched_during_an_outage_starts_with_that_rail_unusable():
    from repro.faults.plan import FaultEvent, FaultPlan

    spec = rail_optimized_platform(64)
    plan = FaultPlan([FaultEvent("down", 50.0, spec.rails[1].name, duration_us=500.0)])
    session = Session(spec, strategy="aggreg_multirail", faults=plan)
    session.run(until=50.0 + plan.detect_us / 2)
    early = session.engine(3)  # the outage is physical, not yet detected
    assert [d.usable for d in early.drivers] == [True, True]
    session.run(until=100.0)
    assert [d.usable for d in early.drivers] == [True, False]  # ... and follows detection
    late = session.engine(9)
    assert [d.health for d in late.drivers] == ["up", "down"]
    assert late.drivers[1].faults is session.faults
    # what it sends goes around the dead rail; a node it reaches builds the same way
    recv = session.interface(40).irecv(9, 1)
    session.interface(9).isend(40, 1, b"around the outage")
    session.run(until=200.0)
    assert recv.done and recv.data == b"around the outage"
    assert [d.eager_posted for d in late.drivers] == [1, 0]
    assert session.metrics.snapshot()["fault.lost.eager{rail=qsnet2}"] == 0
    session.run_until_idle()
    assert [d.usable for d in late.drivers] == [True, True]
