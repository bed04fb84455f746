"""Property suite for the runtime-adaptive strategies (PR 10).

Fuzzes the adaptive layer along the axes the checker and the paper care
about: the EWMA estimate never leaves the observed window, split ratios
stay a probability vector under arbitrary traffic/fault timing, the
tournament only dethrones an incumbent past the hysteresis margin, and a
parallel chaos sweep over both adaptive strategies is digest-identical to
a serial one."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaultEvent, FaultPlan, Session, paper_platform
from repro.core.strategies.adaptive import (
    CANDIDATES,
    HYSTERESIS,
    TournamentStrategy,
    ewma,
)
from repro.faults.chaos import run_chaos
from repro.sim.process import Timeout
from repro.util.units import KB, MB

ADAPTIVE = "feedback,tournament"


@given(
    alpha=st.floats(min_value=0.01, max_value=1.0),
    values=st.lists(
        st.floats(min_value=1e-6, max_value=1e9), min_size=1, max_size=40
    ),
)
@settings(max_examples=100, deadline=None)
def test_ewma_estimate_stays_inside_observed_window(alpha, values):
    """A convex combination of observations cannot escape [min, max] —
    for any alpha in (0, 1] and any observation sequence."""
    est = None
    for value in values:
        est = ewma(est, value, alpha)
    eps = 1e-9 * max(abs(max(values)), 1.0)
    assert min(values) - eps <= est <= max(values) + eps


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_msgs=st.integers(min_value=1, max_value=3),
    degrade_at=st.floats(min_value=50.0, max_value=3000.0),
    factor=st.floats(min_value=0.2, max_value=0.9),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_feedback_ratios_stay_normalized_under_fuzzed_traffic(
    seed, n_msgs, degrade_at, factor
):
    """Whatever the traffic mix and degrade timing, the served split
    ratios remain a probability vector and no sampling re-run ever fires."""
    rng = random.Random(seed)
    sizes = [rng.choice([4 * KB, 64 * KB, 512 * KB, MB]) for _ in range(n_msgs)]
    plan = FaultPlan(
        [
            FaultEvent(
                "degrade", degrade_at, "myri10g",
                duration_us=5000.0, factor=factor,
            )
        ]
    )
    session = Session(paper_platform(), strategy="feedback", faults=plan)
    datas = [rng.randbytes(s) for s in sizes]
    recvs = [session.interface(1).irecv(0, i + 1) for i in range(n_msgs)]

    def sender(iface):
        for i, data in enumerate(datas):
            req = iface.isend(1, i + 1, data)
            while not req.done:
                yield Timeout(25.0)

    session.spawn(sender(session.interface(0)))
    session.run_until_idle()
    for data, rep in zip(datas, recvs):
        assert rep.data == data
    assert session.metrics.snapshot()["fault.resamples"] == 0
    for engine in session.engines:
        ratios = engine.strategy.current_ratios()
        assert len(ratios) == 2
        assert all(r >= 0.0 for r in ratios)
        assert abs(sum(ratios) - 1.0) < 1e-9


@given(
    scores=st.lists(
        st.floats(min_value=1.0, max_value=1000.0),
        min_size=len(CANDIDATES),
        max_size=len(CANDIDATES),
    ),
    active=st.integers(min_value=0, max_value=len(CANDIDATES) - 1),
)
@settings(max_examples=200, deadline=None)
def test_tournament_switches_only_past_the_hysteresis_margin(scores, active):
    """Exploit switches happen iff the best challenger beats the incumbent
    by more than the hysteresis factor; ties break to the lower index."""
    t = TournamentStrategy()
    t._active = active
    t._scores = list(scores)
    t._select_active()
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    if best != active and scores[best] > scores[active] * (1.0 + HYSTERESIS):
        assert t._active == best
        assert t.switches and t.switches[-1][3] == "exploit"
    else:
        assert t._active == active
        assert t.switches == []


def test_adaptive_chaos_digests_identical_serial_vs_parallel():
    """The chaos grid over both adaptive strategies is bit-identical
    between --jobs 1 and a process-pool run (CI runs it at 6 seeds and 4
    workers: ``checks/test_adaptive_chaos.py``)."""
    _assert_serial_is_parallel(seeds=2, jobs=2)


def _assert_serial_is_parallel(seeds, jobs):
    serial = run_chaos(seeds=seeds, strategies=ADAPTIVE, jobs=1)
    parallel = run_chaos(seeds=seeds, strategies=ADAPTIVE, jobs=jobs)
    assert serial.ok, "\n".join(
        v for c in serial.cases for v in c["violations"]
    )
    assert parallel.ok
    assert [c["digest"] for c in serial.cases] == [
        c["digest"] for c in parallel.cases
    ]
