"""Generic size-sweep machinery for curve-style benchmarks.

A *curve* is (label, session factory, segment count); a *sweep* runs every
curve at every total size with a fresh session per point (strategy state
never leaks between points) and collects latency/bandwidth series — the
exact structure of the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Literal, Sequence

from ..util.errors import BenchError
from ..util.tables import Table
from ..util.units import format_size
from .pingpong import PingPongResult, run_pingpong

if TYPE_CHECKING:  # pragma: no cover
    from ..core.session import Session

__all__ = [
    "Curve",
    "SweepResult",
    "sweep_points",
    "measure_point",
    "collect_sweep",
    "sweep_table",
]


@dataclass(frozen=True)
class Curve:
    """One line of a figure."""

    label: str
    session_factory: Callable[[], "Session"]
    segments: int = 1


@dataclass
class SweepResult:
    """All measured points of one figure sweep."""

    sizes: list[int]
    curves: list[str]
    #: results[label][size] -> PingPongResult
    results: dict[str, dict[int, PingPongResult]] = field(default_factory=dict)

    def series(
        self, label: str, metric: Literal["latency", "bandwidth"]
    ) -> list[float]:
        """One curve as a list aligned with :attr:`sizes`."""
        points = self.results[label]
        if metric == "latency":
            return [points[s].one_way_us for s in self.sizes]
        if metric == "bandwidth":
            return [points[s].bandwidth_MBps for s in self.sizes]
        raise BenchError(f"unknown metric {metric!r}")

    def point(self, label: str, size: int) -> PingPongResult:
        return self.results[label][size]


def sweep_points(
    curves: Sequence[Curve], sizes: Sequence[int]
) -> list[tuple[Curve, int]]:
    """The (curve, size) points of a sweep, curve-major — the one place
    that validates a sweep's inputs and decides which pairs are points."""
    if not curves:
        raise BenchError("no curves to sweep")
    if not sizes:
        raise BenchError("no sizes to sweep")
    labels = [c.label for c in curves]
    if len(set(labels)) != len(labels):
        raise BenchError(f"duplicate curve labels: {labels}")
    # e.g. a 4-byte total cannot form 8 non-empty segments; the paper's
    # 4-segment curves likewise start later.
    return [
        (curve, size) for curve in curves for size in sizes if size >= curve.segments
    ]


def measure_point(curve: Curve, size: int, reps: int, warmup: int) -> PingPongResult:
    """One point: a fresh session from the curve's factory, one ping-pong."""
    return run_pingpong(
        curve.session_factory(), size, segments=curve.segments, reps=reps, warmup=warmup
    )


def collect_sweep(
    curves: Sequence[Curve],
    sizes: Sequence[int],
    points: Sequence[tuple[Curve, int]],
    results: Iterable[PingPongResult],
) -> SweepResult:
    """The sweep whose ``points`` measured as ``results`` (same order)."""
    labels = [c.label for c in curves]
    out = SweepResult(sizes=list(sizes), curves=labels)
    out.results = {label: {} for label in labels}
    for (curve, size), result in zip(points, results):
        out.results[curve.label][size] = result
    # drop sizes skipped by every curve; keep ragged starts otherwise
    out.sizes = [s for s in out.sizes if any(s in out.results[l] for l in labels)]
    return out


def sweep_table(
    sweep: SweepResult,
    metric: Literal["latency", "bandwidth"],
    title: str,
) -> Table:
    """Render a sweep as the paper-style table: size column + one column
    per curve (latency in µs or bandwidth in MB/s)."""
    unit = "us" if metric == "latency" else "MB/s"
    table = Table(
        headers=["size"] + [f"{label} ({unit})" for label in sweep.curves],
        title=title,
    )
    for size in sweep.sizes:
        row: list[object] = [format_size(size)]
        for label in sweep.curves:
            point = sweep.results[label].get(size)
            if point is None:
                row.append(None)
            elif metric == "latency":
                row.append(point.one_way_us)
            else:
                row.append(point.bandwidth_MBps)
        table.add_row(*row)
    return table
