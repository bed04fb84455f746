"""Sweep analysis: peaks, speedups, crossover detection.

The paper's qualitative claims are statements about *curve relations* —
"greedy pays off above 16 KB", "hetero-split beats iso-split", "maximum
aggregated bandwidth 1675 MB/s".  These helpers extract exactly those
relations from a :class:`~repro.bench.sweep.SweepResult` so that the
EXPERIMENTS.md generator and the shape tests share one implementation.
"""

from __future__ import annotations

from typing import Literal, Optional

from ..util.errors import BenchError
from .sweep import SweepResult

__all__ = ["peak", "value_at", "speedup_series", "find_crossover"]

Metric = Literal["latency", "bandwidth"]


def _metric_value(sweep: SweepResult, label: str, size: int, metric: Metric) -> Optional[float]:
    point = sweep.results[label].get(size)
    if point is None:
        return None
    return point.one_way_us if metric == "latency" else point.bandwidth_MBps


def value_at(sweep: SweepResult, label: str, size: int, metric: Metric) -> float:
    """The metric of one curve at one size; raises if not measured."""
    v = _metric_value(sweep, label, size, metric)
    if v is None:
        raise BenchError(f"curve {label!r} has no point at size {size}")
    return v


def peak(sweep: SweepResult, label: str, metric: Metric = "bandwidth") -> tuple[int, float]:
    """``(size, value)`` of the curve's best point (max bandwidth or min
    latency)."""
    if label not in sweep.results:
        raise BenchError(f"unknown curve {label!r}; have {sweep.curves}")
    items = [
        (s, _metric_value(sweep, label, s, metric))
        for s in sweep.sizes
        if _metric_value(sweep, label, s, metric) is not None
    ]
    if not items:
        raise BenchError(f"curve {label!r} is empty")
    if metric == "bandwidth":
        return max(items, key=lambda kv: kv[1])
    return min(items, key=lambda kv: kv[1])


def speedup_series(
    sweep: SweepResult, subject: str, baseline: str, metric: Metric = "bandwidth"
) -> list[tuple[int, float]]:
    """Per-size advantage of ``subject`` over ``baseline``.

    Values > 1 mean the subject wins (higher bandwidth / lower latency).
    Sizes missing from either curve are skipped.
    """
    out = []
    for size in sweep.sizes:
        a = _metric_value(sweep, subject, size, metric)
        b = _metric_value(sweep, baseline, size, metric)
        if a is None or b is None:
            continue
        out.append((size, b / a if metric == "latency" else a / b))
    if not out:
        raise BenchError(f"no common sizes between {subject!r} and {baseline!r}")
    return out


def find_crossover(
    sweep: SweepResult,
    subject: str,
    baseline: str,
    metric: Metric = "bandwidth",
    margin: float = 1.0,
) -> Optional[int]:
    """Smallest size from which ``subject`` beats ``baseline`` *and keeps
    winning* for the rest of the sweep (by a factor of at least
    ``margin``).  None if it never durably wins.
    """
    series = speedup_series(sweep, subject, baseline, metric)
    for i, (size, _gain) in enumerate(series):
        if all(g > margin for _s, g in series[i:]):
            return size
    return None
