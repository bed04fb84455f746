"""Optimizing schedulers ("strategies") — the paper's pluggable modules."""

from .adaptive import FeedbackStrategy, TournamentStrategy
from .aggreg_multirail import AggregMultirailStrategy
from .base import Strategy
from .checker import CheckedStrategy
from .registry import (
    available_strategies,
    make_strategy,
    register_strategy,
    strategy_class,
)
from .single_rail import AggregStrategy, GreedyStrategy, SingleRailStrategy
from .split_balance import SplitBalanceStrategy

__all__ = [
    "Strategy",
    "CheckedStrategy",
    "SingleRailStrategy",
    "AggregStrategy",
    "GreedyStrategy",
    "AggregMultirailStrategy",
    "SplitBalanceStrategy",
    "FeedbackStrategy",
    "TournamentStrategy",
    "register_strategy",
    "make_strategy",
    "strategy_class",
    "available_strategies",
]
