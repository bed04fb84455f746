"""PR 10 differential test: the feedback strategy re-converges after a
mid-run bandwidth degrade *without* re-running init-time sampling.

Mirror of ``test_resample.py`` for the observation-driven path: instead of
the fault layer re-running ``sample_rails`` on a detected degrade (the
split_balance story), a ``feedback`` session carries no sample table at
all — its EWMA estimators track the degrade from completion observations.
The differential check is against a control session running natively on a
pre-degraded platform: both must settle on the same split ratio."""

import random

import pytest

from repro import FaultEvent, FaultPlan, Session, paper_platform
from repro.sim.process import Timeout
from repro.util.units import MB

DEGRADE_AT = 2000.0
SIZE = 2 * MB
N_SENDS = 8
#: acceptance tolerance on the converged degraded-rail split share.
TOL = 0.05


def _run_workload(session):
    """Sequential seeded 2 MB sends node0 -> node1; returns node0's strategy."""
    datas = [random.Random(i).randbytes(SIZE) for i in range(N_SENDS)]
    recvs = [session.interface(1).irecv(0, i + 1) for i in range(N_SENDS)]

    def sender(iface):
        for i, data in enumerate(datas):
            req = iface.isend(1, i + 1, data)
            while not req.done:
                yield Timeout(25.0)

    session.spawn(sender(session.interface(0)))
    session.run_until_idle()
    for data, rep in zip(datas, recvs):
        assert rep.data == data
    return session.engine(0).strategy


@pytest.fixture(scope="module")
def faulted():
    """Feedback session degraded mid-run by the fault injector."""
    spec = paper_platform()
    plan = FaultPlan(
        [
            FaultEvent(
                "degrade", DEGRADE_AT, spec.rails[0].name,
                duration_us=1_000_000.0, factor=0.5,
            )
        ]
    )
    session = Session(spec, strategy="feedback", faults=plan)
    strategy = _run_workload(session)
    return session, strategy


@pytest.fixture(scope="module")
def control():
    """Feedback session running natively on the pre-degraded platform."""
    spec = paper_platform()
    rails = [
        spec.rails[0].replace(bw_MBps=spec.rails[0].bw_MBps * 0.5),
        spec.rails[1],
    ]
    session = Session(spec.with_rails(rails), strategy="feedback")
    strategy = _run_workload(session)
    return session, strategy


def test_feedback_never_resamples(faulted):
    """The observation-driven path provably skips the sampling re-run:
    a feedback session has no sample table for the injector to rebuild."""
    session, _ = faulted
    assert session.samples is None
    assert session.metrics.snapshot()["fault.resamples"] == 0


def test_feedback_converges_to_natively_degraded_ratio(faulted, control):
    """Steady-state split share of the degraded rail matches (within TOL)
    what feedback measures on a platform that was degraded all along."""
    _, f_strat = faulted
    _, c_strat = control
    f_ratios, c_ratios = f_strat.current_ratios(), c_strat.current_ratios()
    assert abs(sum(f_ratios) - 1.0) < 1e-9
    assert abs(sum(c_ratios) - 1.0) < 1e-9
    assert abs(f_ratios[0] - c_ratios[0]) < TOL


def test_degrade_visibly_shifts_the_chunk_layout(faulted):
    """The split the rendezvous planner actually used moved: the last
    send's degraded-rail byte share is well below the first send's (which
    was planned from the undegraded cold-start model)."""
    session, f_strat = faulted
    states = sorted(
        session.engines[0].rdv._out_done.values(), key=lambda s: s.req_id
    )
    assert len(states) == N_SENDS, "every 2 MB send should go rendezvous"

    def rail_bytes(state):
        shares = {}
        for rail_index, _offset, length in state.chunks:
            shares[rail_index] = shares.get(rail_index, 0) + length
        return shares

    first, last = rail_bytes(states[0]), rail_bytes(states[-1])
    assert set(first) == {0, 1}, "cold-start send should stripe both rails"
    assert set(last) == {0, 1}, "degraded rail is still usable, just slower"
    share_first = first[0] / SIZE
    share_last = last[0] / SIZE
    assert share_last < share_first - 0.05
    # the final layout reflects the ratio the strategy converged to
    assert abs(share_last - f_strat.current_ratios()[0]) < TOL


def test_feedback_measured_estimates_cover_both_rails(faulted):
    """Both rails accumulated DMA observations and the degraded rail's
    EWMA estimate dropped below the healthy rail's."""
    _, f_strat = faulted
    rails = f_strat._rails
    assert len(rails) == 2
    for index, rail in enumerate(rails):
        assert rail.bw_MBps is not None, f"rail {index} was never observed"
    assert rails[0].bw_MBps < rails[1].bw_MBps
