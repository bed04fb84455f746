"""Behaviour tests for the single-rail reference strategy."""

import pytest

from repro import Session, run_pingpong
from repro.util.errors import ConfigError, StrategyError


def test_pins_all_traffic_to_rail(plat2):
    session = Session(plat2, strategy="single_rail", strategy_opts={"rail": "qsnet2"})
    run_pingpong(session, 64 * 1024, segments=2, reps=2)
    for engine in session.engines:
        mx, elan = engine.drivers
        assert mx.eager_posted == 0 and mx.dma_started == 0
        assert elan.eager_posted > 0 and elan.dma_started > 0


def test_default_rail_is_zero(plat2):
    session = Session(plat2, strategy="single_rail")
    assert session.engine(0).strategy.rail_index == 0


def test_rail_by_index(plat2):
    session = Session(plat2, strategy="single_rail", strategy_opts={"rail": 1})
    assert session.engine(0).strategy.rail_index == 1


def test_unknown_rail_name_rejected(plat2):
    with pytest.raises(ConfigError, match="unknown rail 'nope'"):
        Session(plat2, strategy="single_rail", strategy_opts={"rail": "nope"})


def test_out_of_range_index_rejected(plat2):
    with pytest.raises(StrategyError):
        Session(plat2, strategy="single_rail", strategy_opts={"rail": 5})


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_a_rail(plat2, flag):
    """``True == 1``: without the check, ``rail=True`` pinned rail 1 and
    ``rail_index`` answered ``True``."""
    with pytest.raises(StrategyError, match="rail name or index"):
        Session(plat2, strategy="single_rail", strategy_opts={"rail": flag})
    with pytest.raises(StrategyError, match="rail name or index"):
        Session(plat2, strategy="aggreg", strategy_opts={"rail": flag})


def test_rail_index_before_bind_raises():
    from repro.core.strategies import SingleRailStrategy

    with pytest.raises(StrategyError):
        SingleRailStrategy().rail_index


def test_no_aggregation_ever(plat2):
    session = Session(plat2, strategy="single_rail")
    run_pingpong(session, 1024, segments=4, reps=3)
    assert session.counters()["aggregated_packets"] == 0
    # one eager packet per segment per direction
    assert session.engine(0).counters["packets_committed"] >= 4


def test_large_segment_goes_rendezvous(mx_plat):
    session = Session(mx_plat, strategy="single_rail")
    run_pingpong(session, 100_000, reps=1, warmup=0)
    assert session.engine(0).drivers[0].dma_started == 1
    assert session.counters()["rdv_req_rx"] >= 1


def test_small_segment_goes_eager(mx_plat):
    session = Session(mx_plat, strategy="single_rail")
    run_pingpong(session, 100, reps=1, warmup=0)
    assert session.engine(0).drivers[0].dma_started == 0
    assert session.engine(0).drivers[0].eager_posted >= 1


def test_backlog_drains(plat2):
    session = Session(plat2, strategy="single_rail")
    iface = session.interface(0)
    for i in range(10):
        iface.isend(1, 1, 64)
    session.run_until_idle()
    assert session.engine(0).strategy.backlog == 0


def test_bind_twice_rejected(plat2):
    from repro.core.strategies import SingleRailStrategy

    strategy = SingleRailStrategy()
    session = Session(plat2, strategy="greedy")
    strategy.bind(session.engine(0))
    with pytest.raises(StrategyError):
        strategy.bind(session.engine(1))


def test_session_rejects_strategy_instances(plat2):
    from repro.core.strategies import SingleRailStrategy
    from repro.util.errors import ConfigError

    with pytest.raises(ConfigError, match="own"):
        Session(plat2, strategy=SingleRailStrategy())
