"""Strategy registry: name → factory.

Strategies are per-node stateful objects, so the registry hands out a
*fresh instance* on every :func:`make_strategy` call; the session calls it
once per node.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Type

from ...util.errors import StrategyError
from .adaptive import FeedbackStrategy, TournamentStrategy
from .aggreg_multirail import AggregMultirailStrategy
from .base import Strategy
from .single_rail import AggregStrategy, GreedyStrategy, SingleRailStrategy
from .split_balance import SplitBalanceStrategy

__all__ = [
    "register_strategy",
    "make_strategy",
    "strategy_class",
    "available_strategies",
]

_REGISTRY: dict[str, Type[Strategy]] = {}


def register_strategy(name: str, cls: Type[Strategy], overwrite: bool = False) -> None:
    """Register a strategy class under ``name``."""
    if not issubclass(cls, Strategy):
        raise StrategyError(f"{cls!r} is not a Strategy subclass")
    if name in _REGISTRY and not overwrite:
        raise StrategyError(f"strategy {name!r} already registered")
    _REGISTRY[name] = cls


def strategy_class(name: str) -> Type[Strategy]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise StrategyError(
            f"unknown strategy {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def make_strategy(spec: Any, **opts: Any) -> Strategy:
    """Build a strategy instance.

    ``spec`` may be a registered name (options forwarded to the
    constructor), a Strategy *class*, an already-constructed instance
    (returned as-is; options then disallowed), or any zero-argument
    factory returning a Strategy (e.g.
    :meth:`~repro.core.strategies.checker.CheckedStrategy.wrapping`).
    """
    if isinstance(spec, Strategy):
        if opts:
            raise StrategyError("cannot pass options with a strategy instance")
        return spec
    if isinstance(spec, type) and issubclass(spec, Strategy):
        return _build(spec, opts, spec.name)
    if isinstance(spec, str):
        return _build(strategy_class(spec), opts, spec)
    if callable(spec):
        built = _build(spec, opts)
        if not isinstance(built, Strategy):
            raise StrategyError(
                f"factory {spec!r} returned {type(built).__name__}, not a Strategy"
            )
        return built
    raise StrategyError(f"cannot build a strategy from {spec!r}")


def _build(factory: Callable[..., Any], opts: dict[str, Any], name: str = "") -> Any:
    """``factory(**opts)``; an option it does not take is one StrategyError
    line.  A ``TypeError`` raised inside the constructor passes unchanged."""
    try:
        return factory(**opts)
    except TypeError:
        # the failure path only: a build reads no signature
        params = inspect.signature(factory).parameters
        rejected = sorted(set(opts) - set(params))
        if not rejected or any(p.kind is p.VAR_KEYWORD for p in params.values()):
            raise
        raise StrategyError(
            f"strategy {name or factory!r} takes no option {', '.join(rejected)};"
            f" its options: {', '.join(params) or 'none'}"
        ) from None


def available_strategies() -> list[str]:
    return sorted(_REGISTRY)


for _name, _cls in (
    ("single_rail", SingleRailStrategy),
    ("aggreg", AggregStrategy),
    ("greedy", GreedyStrategy),
    ("aggreg_multirail", AggregMultirailStrategy),
    ("split_balance", SplitBalanceStrategy),
    ("feedback", FeedbackStrategy),
    ("tournament", TournamentStrategy),
):
    register_strategy(_name, _cls)
