"""Unit tests for the strategy registry."""

import pytest

from repro.core.strategies import (
    GreedyStrategy,
    Strategy,
    available_strategies,
    make_strategy,
    register_strategy,
    strategy_class,
)
from repro.util.errors import StrategyError


def test_all_paper_strategies_registered():
    names = available_strategies()
    for expected in (
        "single_rail",
        "aggreg",
        "greedy",
        "aggreg_multirail",
        "split_balance",
        "feedback",
        "tournament",
    ):
        assert expected in names


def test_make_by_name_returns_fresh_instances():
    a = make_strategy("greedy")
    b = make_strategy("greedy")
    assert isinstance(a, GreedyStrategy) and a is not b


def test_make_with_options():
    s = make_strategy("single_rail", rail="qsnet2")
    assert s._rail_opt == "qsnet2"


@pytest.mark.parametrize(
    "name, opts, message",
    (
        ("split_balance", {"ratio": "iso"},
         "'split_balance' takes no option ratio; its options: ratio_mode, split_decision"),
        ("greedy", {"rail": 0}, "'greedy' takes no option rail; its options: none"),
        ("tournament", {"alpha": 0.5, "hysteresis": 0.2},
         "'tournament' takes no option alpha, hysteresis; its options: none"),
    ),
    ids=("split_balance", "greedy", "tournament"),
)
def test_unknown_option_is_one_strategy_error(name, opts, message):
    with pytest.raises(StrategyError) as err:
        make_strategy(name, **opts)
    assert str(err.value) == f"strategy {message}"


def test_type_error_inside_a_constructor_passes_unchanged():
    class Broken(GreedyStrategy):
        def __init__(self, depth=1):
            super().__init__()
            raise TypeError("depth is broken")

    with pytest.raises(TypeError, match="^depth is broken$"):
        make_strategy(Broken, depth=2)


def test_make_from_class():
    assert isinstance(make_strategy(GreedyStrategy), GreedyStrategy)


def test_make_from_instance_passthrough():
    inst = GreedyStrategy()
    assert make_strategy(inst) is inst


def test_instance_with_options_rejected():
    with pytest.raises(StrategyError):
        make_strategy(GreedyStrategy(), rail=0)


def test_unknown_name():
    with pytest.raises(StrategyError, match="unknown strategy"):
        make_strategy("quantum")
    with pytest.raises(StrategyError):
        strategy_class("quantum")


def test_bad_spec_type():
    with pytest.raises(StrategyError):
        make_strategy(3.14)


def test_register_duplicate_rejected():
    with pytest.raises(StrategyError):
        register_strategy("greedy", GreedyStrategy)


def test_register_requires_strategy_subclass():
    with pytest.raises(StrategyError):
        register_strategy("bogus", dict)


def test_register_custom_strategy_with_overwrite():
    class MyStrategy(GreedyStrategy):
        name = "my_greedy"

    register_strategy("my_greedy_test", MyStrategy)
    try:
        assert isinstance(make_strategy("my_greedy_test"), MyStrategy)
        register_strategy("my_greedy_test", GreedyStrategy, overwrite=True)
        assert isinstance(make_strategy("my_greedy_test"), GreedyStrategy)
    finally:
        # keep the global registry clean for other tests
        from repro.core.strategies.registry import _REGISTRY

        _REGISTRY.pop("my_greedy_test", None)
