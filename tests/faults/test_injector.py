"""Tests for the fault injector: state machine, degrade, budgets, zero cost."""

import pytest

from repro import FaultEvent, FaultPlan, Session, paper_platform, run_pingpong
from repro.util.errors import ConfigError
from repro.util.units import MB

DETECT = FaultPlan.DEFAULT_DETECT_US


def _counter(session, name):
    return sum(
        v
        for k, v in session.metrics.snapshot().items()
        if not isinstance(v, dict) and (k == name or k.startswith(name + "{"))
    )


def test_empty_plan_builds_no_injector():
    session = Session(paper_platform(), faults=FaultPlan())
    assert session.faults is None
    for engine in session.engines:
        assert all(d.faults is None for d in engine.drivers)


def test_injector_requires_non_empty_plan():
    from repro.faults.injector import FaultInjector

    session = Session(paper_platform())
    with pytest.raises(ConfigError, match="non-empty"):
        FaultInjector(session, FaultPlan())


def test_empty_plan_is_bit_identical_to_no_plan():
    """The zero-cost contract: the fault layer must not perturb results."""
    spec = paper_platform()
    for size, segments in ((64, 2), (1024, 4), (2 * MB, 2)):
        base = run_pingpong(Session(spec, strategy="aggreg_multirail"), size, segments=segments, reps=2)
        gated = run_pingpong(
            Session(spec, strategy="aggreg_multirail", faults=FaultPlan()),
            size,
            segments=segments,
            reps=2,
        )
        assert gated.one_way_us == base.one_way_us


def test_detection_trails_physical_transitions():
    spec = paper_platform()
    plan = FaultPlan([FaultEvent("down", 100.0, "myri10g", duration_us=50.0)])
    session = Session(spec, faults=plan)
    drv = session.engines[0].drivers[0]
    injector = session.faults

    session.run(until=100.0 + DETECT / 2)
    assert injector.is_down(0) and drv.health == "up"  # physical, not yet detected
    session.run(until=100.0 + DETECT + 1)
    assert drv.health == "down" and not drv.usable
    session.run(until=150.0 + DETECT / 2)
    assert not injector.is_down(0) and drv.health == "down"  # recovery undetected
    session.run(until=150.0 + DETECT + 1)
    assert drv.health == "up" and drv.usable
    assert _counter(session, "fault.downtime_us") == 50.0


def test_degrade_scales_links_then_restores():
    spec = paper_platform()
    base_bw = spec.rails[0].bw_MBps
    plan = FaultPlan(
        [FaultEvent("degrade", 100.0, "myri10g", duration_us=200.0, factor=0.5, lat_factor=1.5)]
    )
    session = Session(spec, faults=plan)
    nic = session.platform.nic(0, 0)
    assert nic.tx_link.capacity == base_bw

    session.run(until=150.0)
    assert nic.tx_link.capacity == pytest.approx(base_bw * 0.5)
    assert session.platform.fabric(0).lat_factor == 1.5
    assert session.engines[0].drivers[0].health == "degraded"

    session.run(until=400.0)
    assert nic.tx_link.capacity == pytest.approx(base_bw)
    assert session.platform.fabric(0).lat_factor == 1.0
    assert session.engines[0].drivers[0].health == "up"


def test_overlapping_degrades_compose_multiplicatively():
    spec = paper_platform()
    base_bw = spec.rails[0].bw_MBps
    plan = FaultPlan(
        [
            FaultEvent("degrade", 10.0, "myri10g", duration_us=100.0, factor=0.5),
            FaultEvent("degrade", 40.0, "myri10g", duration_us=100.0, factor=0.5),
        ]
    )
    session = Session(spec, faults=plan)
    nic = session.platform.nic(0, 0)
    session.run(until=60.0)
    assert nic.tx_link.capacity == pytest.approx(base_bw * 0.25)
    session.run(until=120.0)  # first degrade expired, second still active
    assert nic.tx_link.capacity == pytest.approx(base_bw * 0.5)
    session.run(until=200.0)
    assert nic.tx_link.capacity == pytest.approx(base_bw)


def test_drop_budget_loses_then_retries_eager():
    spec = paper_platform()
    # qsnet2 is the lowest-latency rail: aggregating strategies put small
    # messages there, so the budget is consumed by the first send.
    plan = FaultPlan([FaultEvent("drop", 0.0, "qsnet2", count=1)])
    session = Session(spec, strategy="aggreg_multirail", faults=plan)
    req = session.interface(0).isend(1, 5, b"payload-bytes")
    rep = session.interface(1).irecv(0, 5)
    session.run_until_idle()
    assert req.done
    assert rep.data == b"payload-bytes"
    assert _counter(session, "fault.lost.eager") == 1
    assert _counter(session, "fault.retries") == 1


def test_dup_budget_injects_duplicate_chunk_and_receiver_drops_it():
    spec = paper_platform()
    plan = FaultPlan([FaultEvent("dup", 0.0, "qsnet2", count=1)])
    session = Session(spec, strategy="aggreg_multirail", faults=plan)
    data = bytes(range(256)) * (64 * 1024 // 256)  # 64 KB -> rendezvous
    req = session.interface(0).isend(1, 5, data)
    rep = session.interface(1).irecv(0, 5)
    session.run_until_idle()
    assert req.done and rep.data == data
    assert _counter(session, "fault.dup_injected") == 1
    assert _counter(session, "fault.rx_dropped") == 1


def test_plan_naming_unknown_rail_rejected_at_session_build():
    plan = FaultPlan([FaultEvent("down", 1.0, "nope", duration_us=5.0)])
    with pytest.raises(ConfigError, match="unknown rail"):
        Session(paper_platform(), faults=plan)


def test_custom_detect_us_honoured():
    plan = FaultPlan(
        [FaultEvent("down", 100.0, "myri10g", duration_us=200.0)], detect_us=50.0
    )
    session = Session(paper_platform(), faults=plan)
    drv = session.engines[0].drivers[0]
    session.run(until=130.0)
    assert drv.health == "up"
    session.run(until=151.0)
    assert drv.health == "down"


#: completion times of the ten receives below, generated at the parent of
#: the PR that made the flow network remember allocations (PR 20)
_DEGRADE_RECOVER_TIMES = [
    629.98738538206, 1584.3749433293979, 2478.0824750830566, 2204.692044733044,
    3148.070268004721, 5001.177564784053, 3610.8144862914833, 4679.717181818178,
    6157.009836275772, 5629.9982358804,
]


@pytest.mark.parametrize("backend", ["heap", "native"])
def test_degrade_and_recover_mid_transfer_keeps_every_completion_time(backend):
    """Two rails degrade and recover while DMA flows of repeating shapes
    are in flight: every ``refresh()`` must drop the remembered rates, or
    the flows after it run at the bandwidth of before."""
    from repro.sim.backend import available_backends

    if backend not in available_backends():
        pytest.skip(f"{backend} core not available")
    plan = FaultPlan(
        [
            FaultEvent("degrade", 300.0, "myri10g", duration_us=1500.0, factor=0.5),
            FaultEvent("degrade", 2600.0, "qsnet2", duration_us=900.0, factor=0.25),
        ]
    )
    session = Session(paper_platform(), strategy="greedy", faults=plan, backend=backend)
    a, b = session.interface(0), session.interface(1)
    recvs = [b.irecv(0, 3) for _ in range(10)]
    for i in range(10):
        a.isend(1, 3, (1 + i % 3) * MB // 2)
    session.run_until_idle()
    assert [r.completed_at for r in recvs] == _DEGRADE_RECOVER_TIMES
    assert session.sim.events_executed == 272
