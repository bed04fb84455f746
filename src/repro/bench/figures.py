"""The paper's evaluation (Figs 2-7) as one table, :data:`FIGURES`.

:func:`run_figure` returns a :class:`FigureResult` whose table prints the
same rows/series the paper plots.  Session construction policy (see
DESIGN.md):

* Figures 2-3 (raw single-network performance) run on a *single-rail*
  platform — the library is loaded with one driver only;
* Figures 4-5 reference curves ("we force all the segments to be sent
  sequentially over a single network") run on the **two-rail** platform
  with a pinned strategy — the other NIC is present and polled;
* Figure 6 reference curves are the **NIC-only** configurations — the
  paper's discussion of the gap ("a polling operation on the Myri-10G
  NIC ... mandatory if one wants to effectively use the multi-rail
  feature") only makes sense against a session where the second NIC is
  not even loaded;
* Figure 7 compares NIC-only single-segment transfers against iso- and
  hetero-stripped transfers on the two-rail platform, with stripping
  ratios taken from init-time sampling.

A figure is measured from a :class:`FigurePlan` (curves + sizes) that is
*rebuildable from its id alone*: a :class:`PointTask` ships only
``(figure_id, label, size)`` to a worker process, which reconstructs the
plan locally — session factories hold simulator closures and are
deliberately never pickled.  A plan built with a caller-supplied
:class:`SampleTable` is marked non-portable and is measured in the
calling process.

Absolute values are simulation-calibrated, not testbed measurements; the
assertions that accompany each figure live in
``tests/integration/test_paper_shapes.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Literal, Optional, Sequence

from ..core.sampling import SampleTable, sample_rails
from ..core.session import Session
from ..hardware.presets import (
    MYRI_10G,
    QUADRICS_QM500,
    paper_platform,
    single_rail_platform,
)
from ..hardware.spec import PlatformSpec, RailSpec
from ..util.errors import BenchError
from ..util.tables import Table
from ..util.units import KB, PAPER_BANDWIDTH_SIZES, PAPER_LATENCY_SIZES, geometric_sizes
from .pingpong import PingPongResult
from .sweep import (
    Curve,
    SweepResult,
    collect_sweep,
    measure_point,
    sweep_points,
    sweep_table,
)

__all__ = [
    "Figure",
    "FIGURES",
    "FigurePlan",
    "FigureResult",
    "PointTask",
    "figure_plan",
    "figure_ids",
    "default_plan",
    "figure_cells",
    "run_point",
    "run_plan",
    "run_figure",
]


@dataclass(frozen=True)
class FigurePlan:
    """Everything needed to measure one figure (before any simulation).

    ``portable`` means a worker process can rebuild an identical plan
    from ``figure_id`` alone (all inputs are deterministic defaults);
    only portable plans are fanned out over workers.
    """

    figure_id: str
    title: str
    metric: Literal["latency", "bandwidth"]
    curves: tuple[Curve, ...]
    sizes: tuple[int, ...]
    portable: bool = True


@dataclass
class FigureResult:
    """A reproduced figure: its sweep data and printable table."""

    figure_id: str
    title: str
    metric: Literal["latency", "bandwidth"]
    sweep: SweepResult
    table: Table

    def render(self) -> str:
        return self.table.render()

    def plot(self, width: int = 64, height: int = 16) -> str:
        """Render the figure as a log-log ASCII plot (paper style)."""
        from ..util.asciiplot import AsciiPlot

        unit = "one-way latency (us)" if self.metric == "latency" else "bandwidth (MB/s)"
        plot = AsciiPlot(
            width=width,
            height=height,
            x_log=True,
            y_log=True,
            title=f"{self.figure_id}: {self.title}",
            y_label=unit,
        )
        for label in self.sweep.curves:
            points = self.sweep.results[label]
            sizes = [s for s in self.sweep.sizes if s in points]
            values = [
                points[s].one_way_us if self.metric == "latency" else points[s].bandwidth_MBps
                for s in sizes
            ]
            plot.add_series(label, sizes, values)
        return plot.render()

    def __str__(self) -> str:  # pragma: no cover
        return self.render()


# --------------------------------------------------------------------- #
# shared curve builders
# --------------------------------------------------------------------- #
def _single_platform_curves(rail: RailSpec) -> tuple[Curve, ...]:
    """Regular / 2-seg / 4-seg, with and without aggregation (Figs 2-3)."""
    plat = single_rail_platform(rail)

    def mk(strategy: str) -> Callable[[], Session]:
        return lambda: Session(plat, strategy=strategy)

    return (
        Curve("regular", mk("single_rail"), segments=1),
        Curve("2-seg", mk("single_rail"), segments=2),
        Curve("2-seg aggregated", mk("aggreg"), segments=2),
        Curve("4-seg", mk("single_rail"), segments=4),
        Curve("4-seg aggregated", mk("aggreg"), segments=4),
    )


def _greedy_curves(segments: int, spec: Optional[PlatformSpec] = None) -> tuple[Curve, ...]:
    """Forced-single-rail aggregated references + greedy (Figs 4-5)."""
    plat = spec or paper_platform()
    mx_name, elan_name = plat.rails[0].name, plat.rails[1].name
    return (
        Curve(
            f"{segments}-seg aggregated over Myri-10G",
            lambda: Session(plat, strategy="aggreg", strategy_opts={"rail": mx_name}),
            segments=segments,
        ),
        Curve(
            f"{segments}-seg aggregated over Quadrics",
            lambda: Session(plat, strategy="aggreg", strategy_opts={"rail": elan_name}),
            segments=segments,
        ),
        Curve(
            f"{segments}-seg dynamically balanced",
            lambda: Session(plat, strategy="greedy"),
            segments=segments,
        ),
    )


# Figure 6: references are NIC-only sessions; the "dynamically balanced"
# curve is ``aggreg_multirail`` on the two-rail platform and sits a
# constant idle-NIC poll above the Quadrics-only curve.
def _fig6_curves() -> tuple[Curve, ...]:
    plat = paper_platform()
    mx, elan = plat.rails[0], plat.rails[1]
    return (
        Curve(
            "2-seg aggregated over Myri-10G (NIC-only)",
            lambda: Session(single_rail_platform(mx), strategy="aggreg"),
            segments=2,
        ),
        Curve(
            "2-seg aggregated over Quadrics (NIC-only)",
            lambda: Session(single_rail_platform(elan), strategy="aggreg"),
            segments=2,
        ),
        Curve(
            "2-seg dynamically balanced",
            lambda: Session(plat, strategy="aggreg_multirail"),
            segments=2,
        ),
    )


# Figure 7: the hetero-split ratios come from init-time sampling (run
# once per plan and shared across the sweep, like NewMadeleine samples
# once at initialization); the iso-split curve forces a 50/50 ratio.
def _fig7_curves(samples: Optional[SampleTable] = None) -> tuple[Curve, ...]:
    plat = paper_platform()
    mx, elan = plat.rails[0], plat.rails[1]
    table = samples if samples is not None else sample_rails(plat)
    return (
        Curve(
            "1 segment over Myri-10G",
            lambda: Session(single_rail_platform(mx), strategy="single_rail"),
        ),
        Curve(
            "1 segment over Quadrics",
            lambda: Session(single_rail_platform(elan), strategy="single_rail"),
        ),
        Curve(
            "iso-split over both",
            lambda: Session(
                plat,
                strategy="split_balance",
                strategy_opts={"ratio_mode": "iso"},
                samples=table,
            ),
        ),
        Curve(
            "hetero-split over both",
            lambda: Session(plat, strategy="split_balance", samples=table),
        ),
    )


@dataclass(frozen=True)
class Figure:
    """One row of the figure table: what the paper plots, before any
    session exists."""

    title: str
    metric: Literal["latency", "bandwidth"]
    #: builds the figure's curves (``curves(samples)`` when ``takes_samples``)
    curves: Callable[..., tuple[Curve, ...]]
    #: the paper's x axis, used when the caller names no sizes
    sizes: Sequence[int]
    takes_samples: bool = False


#: the paper's evaluation, one row per figure; everything that names a
#: figure (``figure_plan``, ``run_figure``, the CLI, the bench suites,
#: EXPERIMENTS.md) reads this table.
FIGURES: dict[str, Figure] = {
    # Figures 2-3: raw single-network performance, multi-segment messages
    "fig2a": Figure(
        "Myri-10G latency, regular vs multi-segment (+aggregation)",
        "latency", partial(_single_platform_curves, MYRI_10G), PAPER_LATENCY_SIZES,
    ),
    "fig2b": Figure(
        "Myri-10G bandwidth, regular vs multi-segment (+aggregation)",
        "bandwidth", partial(_single_platform_curves, MYRI_10G), PAPER_BANDWIDTH_SIZES,
    ),
    "fig3a": Figure(
        "Quadrics latency, regular vs multi-segment (+aggregation)",
        "latency", partial(_single_platform_curves, QUADRICS_QM500), PAPER_LATENCY_SIZES,
    ),
    "fig3b": Figure(
        "Quadrics bandwidth, regular vs multi-segment (+aggregation)",
        "bandwidth", partial(_single_platform_curves, QUADRICS_QM500), PAPER_BANDWIDTH_SIZES,
    ),
    # Figures 4-5: greedy balancing
    "fig4a": Figure(
        "Greedy balancing with 2-segment messages — latency",
        "latency", partial(_greedy_curves, 2), geometric_sizes(4, 16 * KB),
    ),
    "fig4b": Figure(
        "Greedy balancing with 2-segment messages — bandwidth",
        "bandwidth", partial(_greedy_curves, 2), PAPER_BANDWIDTH_SIZES,
    ),
    "fig5a": Figure(
        "Greedy balancing with 4-segment messages — latency",
        "latency", partial(_greedy_curves, 4), geometric_sizes(16, 16 * KB),
    ),
    "fig5b": Figure(
        "Greedy balancing with 4-segment messages — bandwidth",
        "bandwidth", partial(_greedy_curves, 4), PAPER_BANDWIDTH_SIZES,
    ),
    # Figure 6: aggregation on the fastest NIC + balanced large messages
    "fig6": Figure(
        "Aggregated eager on fastest NIC, balanced large — latency",
        "latency", _fig6_curves, PAPER_LATENCY_SIZES,
    ),
    # Figure 7: packet stripping with adaptive threshold
    "fig7": Figure(
        "Packet stripping with adaptive threshold — bandwidth",
        "bandwidth", _fig7_curves, PAPER_BANDWIDTH_SIZES, takes_samples=True,
    ),
}


def figure_plan(
    figure_id: str,
    sizes: Optional[Sequence[int]] = None,
    samples: Optional[SampleTable] = None,
) -> FigurePlan:
    """Build the measurement plan for one paper figure by id."""
    try:
        figure = FIGURES[figure_id]
    except KeyError:
        raise BenchError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        ) from None
    if samples is not None and not figure.takes_samples:
        raise BenchError(f"{figure_id} does not take init-time samples")
    return FigurePlan(
        figure_id,
        figure.title,
        figure.metric,
        figure.curves(samples) if figure.takes_samples else figure.curves(),
        tuple(sizes or figure.sizes),
        # Default sampling is deterministic (same table in every process),
        # so the plan stays portable; an externally built table cannot be
        # reconstructed by a worker and pins the plan to this process.
        portable=samples is None,
    )


@dataclass(frozen=True)
class PointTask:
    """One figure point, addressed by name so it can cross processes
    (session factories are closures over platform objects and are
    deliberately never pickled)."""

    figure_id: str
    label: str
    size: int
    reps: int
    warmup: int


def figure_ids(ids: Optional[Sequence[str]] = None) -> list[str]:
    """``ids`` checked against the table; every figure when none is named."""
    ids = list(ids) if ids else sorted(FIGURES)
    unknown = [i for i in ids if i not in FIGURES]
    if unknown:
        raise BenchError(f"unknown figures {unknown}; available: {sorted(FIGURES)}")
    return ids


@lru_cache(maxsize=None)
def default_plan(figure_id: str) -> FigurePlan:
    """The plan a bare id names, built once per process: a worker serving
    many points of one figure rebuilds (and, for fig7, samples) once."""
    return figure_plan(figure_id)


def figure_cells(
    figures: Optional[Sequence[str]] = None, reps: int = 2, warmup: int = 1
) -> list[PointTask]:
    """Every point of the named figures' default plans, figure-major —
    the cells of the ``figures`` bench suite."""
    cells = []
    for figure_id in figure_ids(figures):
        plan = default_plan(figure_id)
        cells += [
            PointTask(figure_id, curve.label, size, reps, warmup)
            for curve, size in sweep_points(plan.curves, plan.sizes)
        ]
    return cells


def run_point(task: PointTask, curve: Optional[Curve] = None) -> dict[str, Any]:
    """Measure one point in the current process (the pool worker body).

    ``curve`` defaults to the one ``task`` names in the figure's default
    plan.  Returns a plain dict (not a :class:`PingPongResult`) so the
    payload crossing the process boundary is primitive and version-stable.
    """
    from ..obs.log import get_logger

    if curve is None:
        by_label = {c.label: c for c in default_plan(task.figure_id).curves}
        try:
            curve = by_label[task.label]
        except KeyError:
            raise BenchError(
                f"figure {task.figure_id!r} has no curve {task.label!r}"
            ) from None
    log = get_logger(point_id=f"{task.figure_id}/{task.label}/{task.size}")
    log.debug("point.start", figure=task.figure_id, curve=task.label, size=task.size)
    result = measure_point(curve, task.size, task.reps, task.warmup)
    log.debug(
        "point.done",
        figure=task.figure_id,
        curve=task.label,
        size=task.size,
        one_way_us=result.one_way_us,
    )
    return asdict(result)


def run_plan(
    plan: FigurePlan,
    reps: int = 3,
    warmup: int = 1,
    jobs: Optional[int] = None,
) -> FigureResult:
    """Measure a plan, optionally fanning points out over worker processes.

    ``jobs=None`` or ``1`` measures in this process, anything larger over
    that many workers (:func:`repro.obs.runner.ordered_map` either way);
    results are bit-identical — each point is an isolated simulator whose
    event order depends only on insertion order, and rows merge in task
    order.  Workers rebuild the curves from the plan's id, so a
    non-portable plan stays in this process, which uses the plan's own.
    """
    from ..obs.log import get_logger
    from ..obs.runner import ordered_map, resolve_jobs

    points = sweep_points(plan.curves, plan.sizes)
    tasks = [
        PointTask(plan.figure_id, curve.label, size, reps, warmup) for curve, size in points
    ]
    n_procs = min(resolve_jobs(jobs), len(tasks))
    if not plan.portable:
        n_procs = 1
    own = dict(zip(tasks, (curve for curve, _ in points)))
    log = get_logger()
    announce = log.info if n_procs > 1 else log.debug  # a fan-out is news
    announce("sweep.start", figure=plan.figure_id, points=len(tasks), jobs=n_procs)
    rows = ordered_map(
        run_point if n_procs > 1 else lambda task: run_point(task, own[task]),
        tasks,
        n_procs,
    )
    announce("sweep.done", figure=plan.figure_id, points=len(rows))
    sweep = collect_sweep(
        plan.curves, plan.sizes, points, (PingPongResult(**row) for row in rows)
    )
    table = sweep_table(sweep, plan.metric, title=f"{plan.figure_id}: {plan.title}")
    return FigureResult(plan.figure_id, plan.title, plan.metric, sweep, table)


def run_figure(
    figure_id: str,
    sizes: Optional[Sequence[int]] = None,
    reps: int = 3,
    samples: Optional[SampleTable] = None,
    jobs: Optional[int] = None,
) -> FigureResult:
    """Run one paper figure by id (``"fig2a"`` ... ``"fig7"``);
    ``samples`` only for figures that take init-time samples (fig7)."""
    return run_plan(
        figure_plan(figure_id, sizes=sizes, samples=samples), reps=reps, jobs=jobs
    )
