"""Unit tests for the runtime-adaptive strategies and their checker
contract (PR 10): registry entries, observation plumbing, epoch-frozen
ratios, tournament bookkeeping, the two adaptive violation slugs, and the
zero-cost guarantee for static strategies."""

from pathlib import Path

import pytest

from repro import Session, run_pingpong
from repro.core.strategies import (
    CheckedStrategy,
    FeedbackStrategy,
    GreedyStrategy,
    TournamentStrategy,
    available_strategies,
    make_strategy,
)
from repro.core.strategies.adaptive import CANDIDATES, RailEstimator, ewma
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import StrategyError
from repro.util.units import MB

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "bench_results" / "baselines" / "BENCH_baseline.json"
)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
def test_adaptive_strategies_registered():
    names = available_strategies()
    assert "feedback" in names and "tournament" in names
    assert isinstance(make_strategy("feedback"), FeedbackStrategy)
    assert isinstance(make_strategy("tournament"), TournamentStrategy)


def test_constructor_validation():
    """The adaptive pair takes no options: each former one is refused as
    one StrategyError line naming the strategy and the key."""
    for name, key, value in (
        ("feedback", "alpha", 1.5),
        ("feedback", "epoch_us", float("nan")),
        ("feedback", "min_chunk", 0),
        ("tournament", "hysteresis", float("nan")),
        ("tournament", "epoch_us", float("inf")),
        ("tournament", "candidates", ("greedy", "tournament")),
    ):
        with pytest.raises(StrategyError, match=f"'{name}' takes no option {key};"):
            make_strategy(name, **{key: value})


# --------------------------------------------------------------------- #
# the estimator
# --------------------------------------------------------------------- #
def _estimator():
    return RailEstimator((5.0, 100.0), MetricsRegistry(), "r")


def test_estimator_initializes_to_first_observation():
    assert ewma(None, 500.0, 0.25) == 500.0
    assert ewma(500.0, 100.0, 0.25) == 0.25 * 100.0 + 0.75 * 500.0
    est = _estimator()
    est.observe("dma", 1000, 2.0)
    assert est.bw_MBps == 500.0
    assert est.model == (5.0, 100.0), "the served model changes only at an epoch"


def test_estimator_keeps_pio_and_dma_separate():
    est = _estimator()
    est.observe("dma", 1000, 1.0)
    est.observe("pio", 10, 1.0)
    assert est.bw_MBps == 1000.0, "PIO must not pollute the DMA estimate"
    assert est.m_obs.value == 2, "both kinds count as observations"


# --------------------------------------------------------------------- #
# feedback end-to-end
# --------------------------------------------------------------------- #
def test_feedback_observes_and_serves_normalized_ratios(plat2):
    session = Session(plat2, strategy="feedback")
    run_pingpong(session, 2 * MB, segments=2, reps=2)
    strat = session.engine(0).strategy
    ratios = strat.current_ratios()
    assert len(ratios) == plat2.n_rails
    assert all(r >= 0.0 for r in ratios)
    assert abs(sum(ratios) - 1.0) < 1e-9
    assert any(rail.bw_MBps is not None for rail in strat._rails)
    snap = session.metrics.snapshot()
    assert snap["adaptive.epochs"] > 0
    assert any(k.startswith("adaptive.observations") for k in snap)


def test_static_strategy_pays_nothing_for_the_adaptive_layer(plat2):
    """Zero-cost when unselected: no observer installed, no adaptive
    instruments registered."""
    session = Session(plat2, strategy="aggreg_multirail")
    run_pingpong(session, 64 * 1024, segments=2, reps=1)
    for engine in session.engines:
        assert engine._observer is None
        for drv in engine.drivers:
            assert drv.observer is None
    assert not any(
        k.startswith("adaptive.") for k in session.metrics.snapshot()
    )


def test_observer_installed_for_adaptive_sessions(plat2):
    session = Session(plat2, strategy="feedback")
    for engine in session.engines:
        assert engine._observer is engine.strategy
        for drv in engine.drivers:
            assert drv.observer is engine.strategy


# --------------------------------------------------------------------- #
# tournament end-to-end
# --------------------------------------------------------------------- #
def test_tournament_races_and_scores_candidates(plat2):
    session = Session(plat2, strategy="tournament")
    run_pingpong(session, 2 * MB, segments=2, reps=4)
    strat = session.engine(0).strategy
    assert [c.name for c in strat._candidates] == list(CANDIDATES)
    assert any(s is not None for s in strat._scores)
    assert strat.active_strategy.name in CANDIDATES
    snap = session.metrics.snapshot()
    assert snap["adaptive.epochs"] > 0
    assert "adaptive.active_strategy" in snap


# --------------------------------------------------------------------- #
# checker integration
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("inner", ["feedback", "tournament"])
def test_checked_adaptive_strategies_run_violation_free(plat2, inner):
    session = Session(
        plat2, strategy=CheckedStrategy.wrapping(inner, record_only=True)
    )
    run_pingpong(session, 1024, segments=4, reps=2)
    run_pingpong(session, 2 * MB, segments=2, reps=1)
    for engine in session.engines:
        engine.strategy.check_drained()
        assert engine.strategy.violations == []


def test_checker_forwards_wants_observations():
    assert CheckedStrategy(inner="feedback").wants_observations is True
    assert CheckedStrategy(inner="tournament").wants_observations is True
    assert CheckedStrategy(inner="greedy").wants_observations is False


def test_checker_flags_mid_epoch_ratio_change(plat2):
    """A feedback controller mutating its split mid-epoch is the exact
    bug class the new invariant exists for."""

    class RatioMutator(GreedyStrategy):
        name = "ratio_mutator"

        def __init__(self):
            super().__init__()
            self._calls = 0

        def epoch_index(self):
            return 0  # never advances ...

        def current_ratios(self):
            self._calls += 1  # ... yet the ratios drift on every look
            return (1.0 / self._calls, 1.0 - 1.0 / self._calls)

    session = Session(plat2, strategy=CheckedStrategy.wrapping(RatioMutator))
    session.interface(0).isend(1, 1, b"x" * 4096)
    with pytest.raises(StrategyError, match="mid-epoch-ratio-change"):
        session.run_until_idle()


def test_checker_flags_nonmonotone_observations():
    checker = CheckedStrategy(inner="feedback", record_only=True)
    checker.observe(0, "dma", 100, 0.0, 10.0)
    checker.observe(0, "dma", 100, 12.0, 11.0)  # end before the high-water
    checker.observe(0, "dma", 100, 20.0, 15.0)  # end before its own start
    slugs = [v.invariant for v in checker.violations]
    assert slugs == ["nonmonotone-observation", "nonmonotone-observation"]


def test_checker_accepts_monotone_observations():
    checker = CheckedStrategy(inner="feedback", record_only=True)
    checker.observe(0, "dma", 100, 0.0, 10.0)
    checker.observe(1, "pio", 50, 8.0, 10.0)  # same end time is fine
    checker.observe(0, "dma", 100, 9.0, 14.0)
    assert checker.violations == []


# --------------------------------------------------------------------- #
# static results are bit-identical to the committed baseline
# --------------------------------------------------------------------- #
def test_static_figure_results_bit_identical_to_baseline():
    """The observation plumbing is pure bookkeeping: a static-strategy
    figure re-run reproduces the committed pre-PR baseline's simulated
    numbers to the last bit."""
    from repro.bench.figures import run_figure
    from repro.obs.perf import load_record, pingpong_point, point_key

    baseline = load_record(str(BASELINE))
    base = {
        point_key(p): p
        for p in baseline.points
        if p.get("bench") == "fig7" and p.get("size") == 32768
    }
    assert base, "baseline should carry fig7 points at 32 KB"

    # reps must match the baseline run: reps share one session, so the
    # averaged one-way time is only bit-identical at the same rep count.
    result = run_figure("fig7", sizes=(32768,), reps=2)
    checked = 0
    for label in result.sweep.curves:
        for _size, pp in result.sweep.results[label].items():
            point = pingpong_point(pp, bench="fig7", curve=label)
            ref = base[point_key(point)]
            assert point["one_way_us"] == ref["one_way_us"]
            assert point["bandwidth_MBps"] == ref["bandwidth_MBps"]
            checked += 1
    assert checked == len(base)
