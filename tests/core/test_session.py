"""Unit tests for the session façade."""

import pytest

from repro import Session, paper_platform
from repro.core.strategies import SingleRailStrategy
from repro.sim import Simulator, Timeout
from repro.util.errors import ConfigError


def test_requires_platform_spec():
    with pytest.raises(ConfigError):
        Session("not a spec")


def test_engines_one_per_node():
    session = Session(paper_platform(n_nodes=4))
    assert len(session.engines) == 4
    assert session.n_nodes == 4
    assert [e.node_id for e in session.engines] == [0, 1, 2, 3]


def test_engine_accessor_error(plat2):
    with pytest.raises(ConfigError):
        Session(plat2).engine(7)


def test_negative_node_ids_are_refused_not_wrapped():
    """``-1`` used to answer with the last node — and cache a second
    ``Interface`` for its engine under the key -1."""
    session = Session(paper_platform(n_nodes=4))
    for door in (session.engine, session.interface, session.counters):
        with pytest.raises(ConfigError, match=r"^no node -1 \(have 4\)$"):
            door(-1)
    assert session.engines.built_count == 1 and session._interfaces == {}
    assert session.engines[-1].node_id == 3  # the list keeps list semantics


def test_interface_cached(plat2):
    session = Session(plat2)
    assert session.interface(0) is session.interface(0)
    assert session.interface(0) is not session.interface(1)


def test_strategy_instances_are_per_node(plat2):
    session = Session(plat2, strategy="greedy")
    assert session.engine(0).strategy is not session.engine(1).strategy


def test_strategy_opts_forwarded(plat2):
    session = Session(plat2, strategy="single_rail", strategy_opts={"rail": "qsnet2"})
    assert session.engine(0).strategy.rail_index == 1


def test_strategy_class_accepted(plat2):
    session = Session(plat2, strategy=SingleRailStrategy)
    assert session.engine(0).strategy.name == "single_rail"


def test_external_simulator(plat2):
    sim = Simulator()
    session = Session(plat2, sim=sim)
    assert session.sim is sim


def test_spawn_and_run(plat2):
    session = Session(plat2)
    ticks = []

    def proc():
        yield Timeout(5.0)
        ticks.append(session.sim.now)

    session.spawn(proc())
    session.run_until_idle()
    assert ticks == [5.0]


def test_run_until(plat2):
    session = Session(plat2)
    session.run(until=10.0)
    assert session.sim.now == 10.0


def test_counters_merged_across_nodes(plat2):
    session = Session(plat2)
    session.engine(0).counters.add("x", 2)
    session.engine(1).counters.add("x", 3)
    assert session.counters()["x"] == 5
    assert session.counters(0)["x"] == 2


def test_stop_all(plat2):
    session = Session(plat2)
    session.stop()
    session.run_until_idle()
    for engine in session.engines:
        assert engine._stopped
