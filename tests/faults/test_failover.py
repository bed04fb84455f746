"""End-to-end failover tests: a killed rail must not lose the message."""

import dataclasses
import random
from collections import deque

import pytest

from repro import FaultEvent, FaultPlan, Session, paper_platform
from repro.core.packet import EagerEntry, Payload
from repro.util.units import MB


def _counter(session, name):
    return sum(
        v
        for k, v in session.metrics.snapshot().items()
        if not isinstance(v, dict) and (k == name or k.startswith(name + "{"))
    )


def _transfer(session, data, tag=7):
    req = session.interface(0).isend(1, tag, data)
    rep = session.interface(1).irecv(0, tag)
    session.run_until_idle()
    return req, rep


@pytest.mark.parametrize("victim", ["myri10g", "qsnet2"])
def test_rail_killed_mid_dma_delivers_exact_bytes(victim):
    """Cut one rail while two balanced 2 MB rendezvous segments are in
    flight (one per rail): the chunks queued on the dead rail retry on the
    survivor and the receivers reassemble the exact payloads."""
    rng = random.Random(1234)
    payloads = {tag: rng.randbytes(2 * MB) for tag in (7, 8)}
    plan = FaultPlan([FaultEvent("down", 200.0, victim, duration_us=3000.0)])
    session = Session(paper_platform(), strategy="aggreg_multirail", faults=plan)
    reqs = {tag: session.interface(0).isend(1, tag, data) for tag, data in payloads.items()}
    reps = {tag: session.interface(1).irecv(0, tag) for tag in payloads}
    session.run_until_idle()
    for tag, data in payloads.items():
        assert reqs[tag].done
        assert reps[tag].data == data
    assert _counter(session, "fault.retries") > 0
    assert _counter(session, "fault.lost.chunks") > 0


def test_eager_traffic_reroutes_around_detected_down_rail():
    """Messages sent after detection must not touch the dead rail at all:
    they complete before the outage ends, with zero losses."""
    plan = FaultPlan([FaultEvent("down", 0.0, "qsnet2", duration_us=2000.0)])
    session = Session(paper_platform(), strategy="aggreg_multirail", faults=plan)

    def sender(iface):
        from repro.sim.process import Timeout

        yield Timeout(50.0)  # well past the 10 us detection delay
        iface.isend(1, 3, b"after-detection")

    session.spawn(sender(session.interface(0)))
    rep = session.interface(1).irecv(0, 3)
    session.run_until_idle()
    assert rep.data == b"after-detection"
    assert rep.completed_at < 2000.0  # delivered during the outage
    assert _counter(session, "fault.lost.eager") == 0
    assert _counter(session, "fault.retries") == 0


def test_flapping_link_still_delivers_everything():
    data = random.Random(99).randbytes(2 * MB)
    plan = FaultPlan(
        [FaultEvent("flap", 20.0, "myri10g", duration_us=60.0, period_us=400.0, cycles=4)]
    )
    session = Session(paper_platform(), strategy="aggreg_multirail", faults=plan)
    req, rep = _transfer(session, data)
    assert req.done and rep.data == data


def test_loss_accounting_balances_after_failover():
    """Every loss charged by the injector is matched by exactly one retry
    (exactly-once failover, no spurious retransmissions)."""
    data = random.Random(7).randbytes(4 * MB)
    plan = FaultPlan(
        [
            FaultEvent("drop", 1.0, "qsnet2", count=1),
            FaultEvent("down", 60.0, "qsnet2", duration_us=400.0),
        ]
    )
    session = Session(paper_platform(), strategy="aggreg_multirail", faults=plan)
    req, rep = _transfer(session, data)
    assert req.done and rep.data == data
    losses = _counter(session, "fault.lost.eager") + _counter(session, "fault.lost.chunks")
    assert losses > 0
    assert _counter(session, "fault.retries") == losses


def test_failover_trace_target_reports_retries():
    """The acceptance-criteria scenario: ``repro trace failover`` shows a
    completed run with fault.retries > 0."""
    from repro.bench.tracing import run_traced

    session = run_traced("failover")
    assert _counter(session, "fault.retries") > 0
    assert session.faults is not None
    assert all(h == "up" for h in session.faults.health_report().values())


# --------------------------------------------------------------------- #
# retransmission wrappers: the fit is tested before an entry is added,
# so a wrapper's running tally can never disagree with its entries
# --------------------------------------------------------------------- #
def _small_survivor_platform(threshold):
    """The paper platform with myri10g's eager limit cut to ``threshold``."""
    plat = paper_platform()
    rails = tuple(
        dataclasses.replace(r, eager_threshold=threshold) if r.name == "myri10g" else r
        for r in plat.rails
    )
    return dataclasses.replace(plat, rails=rails)


def _walked_wire_bytes(pw, spec):
    return sum(
        e.wire_size(spec.header_bytes if isinstance(e, EagerEntry) else spec.ctrl_bytes)
        for e in pw.entries
    )


def test_retransmission_too_big_for_the_surviving_rail_waits_for_recovery():
    """An 8 KB eager segment dies on qsnet2; the survivor (myri10g, 4 KB
    eager limit) cannot carry it, so it stays queued — untouched — until
    qsnet2 is back, and is then delivered intact."""
    plan = FaultPlan([FaultEvent("down", 0.0, "qsnet2", duration_us=500.0)])
    session = Session(_small_survivor_platform(4096), strategy="aggreg_multirail", faults=plan)
    data = random.Random(5).randbytes(8000)
    req, rep = _transfer(session, data, tag=3)
    assert req.done and rep.data == data
    assert rep.completed_at >= 500.0  # not before the big-enough rail recovered
    assert _counter(session, "fault.retries") == 1
    # the same decision, seen at the builder: nothing built, nothing dequeued
    engine = session.engine(0)
    entry = EagerEntry(3, 1, Payload.virtual(8000))
    engine._retrans.append((1, entry))
    small = next(d for d in engine.drivers if d.name == "myri10g")
    assert engine._build_retrans(small) is None
    assert list(engine._retrans) == [(1, entry)]
    big = next(d for d in engine.drivers if d.name == "qsnet2")
    pw = engine._build_retrans(big)
    assert pw.entries == [entry] and not engine._retrans
    assert pw.wire_bytes == _walked_wire_bytes(pw, big.spec) == 8000 + big.spec.header_bytes


def test_retransmission_fits_exactly_at_the_eager_limit():
    session = Session(_small_survivor_platform(4096), strategy="aggreg_multirail")
    engine = session.engine(0)
    driver = next(d for d in engine.drivers if d.name == "myri10g")
    limit, header = driver.max_eager_bytes, driver.spec.header_bytes
    exact = EagerEntry(3, 0, Payload.virtual(limit - header))
    empty = EagerEntry(3, 1, Payload.virtual(0))  # still needs a header: no room
    engine._retrans = deque([(1, exact), (1, empty)])  # made on first loss
    pw = engine._build_retrans(driver)
    assert pw.entries == [exact]
    assert pw.wire_bytes == limit == _walked_wire_bytes(pw, driver.spec)
    assert list(engine._retrans) == [(1, empty)]
    driver.post_eager(pw)  # a wrapper exactly at the limit is postable
    # one byte over the limit is not taken at all
    engine._retrans.clear()
    over = EagerEntry(3, 2, Payload.virtual(limit - header + 1))
    engine._retrans.append((1, over))
    assert engine._build_retrans(driver) is None
    assert list(engine._retrans) == [(1, over)]
