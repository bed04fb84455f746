"""Laws of the strategy ladder.

No recorded number: every expectation is another run of the same model.
The paper's strategies differ only in policy — which rail a segment goes
to, and whether it is aggregated or split (§3.1–3.4) — so where a policy
has no choice to make, two rungs of the ladder must be the same run:

1. on one rail, ``greedy`` is ``single_rail`` (there is no other NIC to
   be greedy about), ``split_balance`` is ``aggreg_multirail`` (there
   is no second DMA engine to strip onto), ``feedback`` is
   ``split_balance`` (a measured model of one rail still has nothing to
   split) and ``tournament`` is ``aggreg_multirail`` (each candidate's
   policy is that rung on one rail) — equal results, equal final clock,
   equal event count, equal merged counters.  The tournament alone may
   run more kernel events (process resumptions) where it switches
   candidates mid-flood: up to 18 on the floods of 64 KB and more, with
   the same results, clock and counters (racing one candidate, it runs
   none extra);
2. on two identical rails, the sampled split ratio is the even one, so
   ``ratio_mode="iso"`` and the sampled split take the same time.
"""

import dataclasses

import pytest

from repro.bench.flood import run_flood
from repro.bench.pingpong import run_pingpong
from repro.core.sampling import sample_rails
from repro.core.session import Session
from repro.hardware.presets import (
    MYRI_10G,
    PAPER_HOST,
    QUADRICS_QM500,
    single_rail_platform,
)
from repro.hardware.spec import PlatformSpec
from repro.util.units import KB, MB

SIZES = (8, 4 * KB, 64 * KB, 1 * MB, 8 * MB)
#: (rung, the rung it must equal when the platform has one rail)
ONE_RAIL_PAIRS = (
    ("greedy", "single_rail"),
    ("split_balance", "aggreg_multirail"),
    ("feedback", "split_balance"),
    ("tournament", "aggreg_multirail"),
)
#: rungs held to every equality but the event count (see law 1)
MORE_EVENTS = ("tournament",)


def _pingpong(session, size):
    return run_pingpong(session, size, segments=2, reps=2, warmup=1)


def _flood(session, size):
    return run_flood(session, size, count=24, window=6)


def _run(spec, strategy, workload, size):
    session = Session(spec, strategy=strategy)
    result = workload(session, size)
    return result, session.sim.now, session.sim.events_executed, session.counters().snapshot()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("workload", (_pingpong, _flood), ids=("pingpong", "flood"))
@pytest.mark.parametrize("pair", ONE_RAIL_PAIRS, ids=lambda p: f"{p[0]}={p[1]}")
@pytest.mark.parametrize("rail", (MYRI_10G, QUADRICS_QM500), ids=lambda r: r.name)
def test_on_one_rail_a_rung_without_a_choice_is_the_rung_below(rail, pair, workload, size):
    spec = single_rail_platform(rail)
    rung, below = (_run(spec, name, workload, size) for name in pair)
    if pair[0] in MORE_EVENTS:
        rung, below = rung[:2] + rung[3:], below[:2] + below[3:]
    assert rung == below


@pytest.mark.parametrize("size", (64 * KB, 1 * MB, 8 * MB))
def test_on_identical_rails_the_sampled_split_is_the_even_split(size):
    spec = PlatformSpec(
        rails=(MYRI_10G, dataclasses.replace(MYRI_10G, name="myri10g_b")),
        host=PAPER_HOST,
    )
    samples = sample_rails(spec)

    def one_way(**opts):
        session = Session(spec, strategy="split_balance", strategy_opts=opts, samples=samples)
        result = run_pingpong(session, size, reps=2, warmup=1)
        assert session.engine(0).rdv.split_count > 0  # both really split
        return result.one_way_us

    assert one_way(ratio_mode="iso") == one_way()
