"""Tests for the §4 future-work feature: parallel PIO transfers.

"Our current implementation is unable to take advantage of concurrent
data transfers that do not involve DMA operations.  We are currently
designing a multi-threaded implementation that will process parallel PIO
transfers on multiprocessor machines."

``HostSpec.pio_workers > 0`` enables that design: eager copies offload to
worker threads, so two PIO sends on two NICs overlap, and the multi-rail
payoff extends below the eager threshold.
"""

import dataclasses

import pytest

from repro import Session, paper_platform, run_pingpong
from repro.util.errors import ConfigError
from repro.util.units import KB, MB


@pytest.fixture()
def mt_plat(plat2):
    """The paper's platform with one extra PIO thread (dual-core node)."""
    return dataclasses.replace(plat2, host=plat2.host.replace(pio_workers=1))


def test_negative_workers_rejected(plat2):
    with pytest.raises(ConfigError):
        plat2.host.replace(pio_workers=-1)


def test_offloads_counted(mt_plat):
    session = Session(mt_plat, strategy="greedy")
    run_pingpong(session, 8 * KB, segments=2, reps=2)
    assert session.counters()["pio_offloads"] > 0
    assert session.engine(0).host.pio_offloads > 0


def test_no_offloads_without_workers(plat2):
    session = Session(plat2, strategy="greedy")
    run_pingpong(session, 8 * KB, segments=2, reps=2)
    assert session.counters()["pio_offloads"] == 0


@pytest.mark.parametrize("size", [2 * KB, 8 * KB, 16 * KB])
def test_parallel_pio_beats_single_threaded_greedy(plat2, mt_plat, size):
    g1 = run_pingpong(Session(plat2, strategy="greedy"), size, segments=2).one_way_us
    g2 = run_pingpong(Session(mt_plat, strategy="greedy"), size, segments=2).one_way_us
    assert g2 < g1 * 0.85


def test_multirail_pays_off_below_threshold_with_workers(plat2, mt_plat):
    """The headline of the future work: PIO-regime multi-rail gain."""
    size = 8 * KB
    parallel = run_pingpong(Session(mt_plat, strategy="greedy"), size, segments=2).one_way_us
    best_single = min(
        run_pingpong(
            Session(plat2, strategy="aggreg", strategy_opts={"rail": r}), size, segments=2
        ).one_way_us
        for r in ("myri10g", "qsnet2")
    )
    assert parallel < best_single


def test_rendezvous_sizes_unaffected(plat2, mt_plat):
    """Above the threshold everything is DMA; workers change nothing."""
    a = run_pingpong(Session(plat2, strategy="greedy"), 1 * MB, segments=2, reps=2)
    b = run_pingpong(Session(mt_plat, strategy="greedy"), 1 * MB, segments=2, reps=2)
    assert a.one_way_us == pytest.approx(b.one_way_us, rel=0.01)


def test_data_integrity_with_offloaded_copies(mt_plat):
    session = Session(mt_plat, strategy="greedy")
    msgs = [bytes([i]) * (2 * KB) for i in range(6)]
    recvs = [session.interface(1).irecv(0, 1) for _ in msgs]
    for m in msgs:
        session.interface(0).isend(1, 1, m)
    session.run_until_idle()
    assert [r.data for r in recvs] == msgs


def test_send_completion_waits_for_worker_copy(mt_plat):
    """An offloaded send completes when the worker's copy ends: the
    descriptor post runs on the pump from the commit, the copy after it,
    at the costs the rail that carried the send quoted."""
    session = Session(mt_plat, strategy="greedy")
    quoted = set()
    for driver in session.engine(0).drivers:
        def quoting(pw, name=driver.name, cost_parts=driver.eager_cost_parts):
            parts = cost_parts(pw)
            quoted.add((name, parts))
            return parts

        driver.eager_cost_parts = quoting
    req = session.interface(0).isend(1, 1, 8 * KB)
    session.run_until_idle()
    assert req.done and session.counters()["pio_offloads"] == 1
    [(_, (post, copy))] = quoted  # one rail, one packet
    assert req.completed_at == req.first_commit_at + post + copy


def test_single_rail_platform_with_workers_still_serializes_per_nic(mt_plat):
    """One NIC: its TX path is exclusive, parallel PIO cannot help a
    2-segment message much (copies are on the same wire)."""
    single = mt_plat.single_rail("myri10g")
    with_w = run_pingpong(Session(single, strategy="single_rail"), 8 * KB, segments=2).one_way_us
    base = run_pingpong(
        Session(paper_platform().single_rail("myri10g"), strategy="single_rail"),
        8 * KB,
        segments=2,
    ).one_way_us
    assert with_w == pytest.approx(base, rel=0.25)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_worker_is_claimed_from_the_end_of_the_post(plat2, workers):
    """The descriptor post runs on the pump, so an offloaded copy holds its
    worker for ``[post end, post end + copy)``; at most ``pio_workers``
    such windows overlap."""
    spec = dataclasses.replace(plat2, host=plat2.host.replace(pio_workers=workers))
    session = Session(spec, strategy="greedy")
    engine = session.engine(0)
    asked, claims = [], []

    def asking(cost_parts):
        def recording(pw):
            post, copy = cost_parts(pw)
            asked.append((session.sim.now + post, copy))
            return post, copy

        return recording

    for driver in engine.drivers:
        driver.eager_cost_parts = asking(driver.eager_cost_parts)
    claim = engine.host.try_claim_pio_worker

    def claiming(start, duration):
        claimed = claim(start, duration)
        if claimed:
            claims.append(((start, duration), asked[-1]))
        return claimed

    engine.host.try_claim_pio_worker = claiming
    for i in range(24):
        session.interface(1).irecv(0, i)
        session.interface(0).isend(1, i, (2 + i % 4) * 2 * KB)
    session.run_until_idle()
    assert claims, "no copy was offloaded"
    assert all(claimed == (post_end, copy) for claimed, (post_end, copy) in claims)
    windows = [(start, start + copy) for _, (start, copy) in claims]
    overlap = max(sum(s <= t < e for s, e in windows) for t, _ in windows)
    assert overlap <= workers
