"""The bench suites of a run record, and the one loop that runs them.

A ``BENCH_*.json`` record is a list of points: the paper's figure sweeps,
the two engine ping-pongs, the collectives scaling curve and the adaptive
degrade-recovery cells.  Each of these is a :class:`Suite` — a row of
:data:`SUITES` — and :func:`run_suites` is the only runner: it asks every
selected suite for its cells, deals all of them to one
:func:`~repro.obs.runner.ordered_map` and records what comes back **in
task order**, so a record is the same list whatever ``jobs`` was.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from ..obs.perf import BenchRecorder, metrics_probe, pingpong_point
from ..util.errors import BenchError
from . import adaptive, figures, scale
from .pingpong import PingPongResult, run_pingpong

__all__ = ["Suite", "SUITES", "EngineCell", "ENGINE_CELLS", "run_engine_cell", "run_suites"]


@dataclass(frozen=True)
class Suite:
    """How one kind of cell is listed, run, recorded and printed.

    A *cell* is a picklable descriptor (it is sent to a worker by value);
    a *row* is the dict of primitives its run returns.
    """

    #: ``cells(**opts)`` -> the suite's cells, in record order
    cells: Callable[..., Sequence[Any]]
    #: ``run(cell)`` -> row; a module-level function, so a worker started
    #: by ``spawn``/``forkserver`` can import it
    run: Callable[[Any], dict]
    #: ``point(cell, row)`` -> the gateable record point
    point: Callable[[Any, dict], dict]
    #: ``heading(cell)`` -> printed by ``bench run`` when it changes
    heading: Callable[[Any], str]
    #: ``line(cell, row)`` -> what ``bench run`` prints for the cell
    line: Callable[[Any, dict], Optional[str]] = lambda cell, row: None
    #: ``metrics(cell, row)`` -> report-only metrics merged into the record
    metrics: Callable[[Any, dict], Mapping[str, Any]] = lambda cell, row: {}


# --------------------------------------------------------------------- #
# the engine suite: a rendezvous/DMA point and a latency-regime
# aggregation point on the paper platform, gated like any figure point
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineCell:
    bench: str
    strategy: str
    size: int
    segments: int
    reps: int
    warmup: int


ENGINE_CELLS = (
    EngineCell("pingpong_1MB_greedy", "greedy", 1024 * 1024, 2, 2, 1),
    EngineCell("pingpong_64B_aggreg_multirail", "aggreg_multirail", 64, 4, 10, 2),
)


def run_engine_cell(cell: EngineCell) -> dict[str, Any]:
    from ..core.session import Session
    from ..hardware.presets import paper_platform

    session = Session(paper_platform(), strategy=cell.strategy)
    return asdict(
        run_pingpong(
            session, cell.size, segments=cell.segments, reps=cell.reps, warmup=cell.warmup
        )
    )


#: every suite, in the order its points appear in a record.
SUITES: dict[str, Suite] = {
    "engine": Suite(
        cells=lambda: ENGINE_CELLS,
        run=run_engine_cell,
        point=lambda cell, row: pingpong_point(
            PingPongResult(**row), bench=f"engine.{cell.bench}"
        ),
        heading=lambda cell: "running engine points ...",
    ),
    "figures": Suite(
        cells=figures.figure_cells,
        run=figures.run_point,
        point=lambda cell, row: pingpong_point(
            PingPongResult(**row), bench=cell.figure_id, curve=cell.label
        ),
        heading=lambda cell: f"running {cell.figure_id} ...",
    ),
    "scale": Suite(
        cells=scale.scale_cells,
        run=scale.run_scale_cell,
        point=lambda cell, row: scale.scale_point(scale.ScaleResult(**row)),
        heading=lambda cell: "running collectives scaling suite ...",
        line=scale.scale_line,
        metrics=scale.scale_metrics,
    ),
    "adaptive": Suite(
        cells=adaptive.adaptive_cells,
        run=adaptive.run_adaptive_cell,
        point=lambda cell, row: adaptive.adaptive_point(adaptive.AdaptiveResult(**row)),
        heading=lambda cell: "running adaptive degrade-recovery suite ...",
        line=adaptive.adaptive_line,
        metrics=adaptive.adaptive_metrics,
    ),
}


def _run_cell(task: tuple[str, Any]) -> dict:
    """Pool worker body: a task names its suite, the cell travels by value."""
    name, cell = task
    return SUITES[name].run(cell)


def run_suites(
    recorder: BenchRecorder,
    selected: Mapping[str, Mapping[str, Any]],
    jobs: Optional[int] = None,
    on_cell: Optional[Callable[[str, list[str], int, int], None]] = None,
) -> None:
    """Run the ``selected`` suites (name -> options of its ``cells``) into
    ``recorder``.

    All cells of all suites form one task list, in :data:`SUITES` order,
    and go through one :func:`~repro.obs.runner.ordered_map`: ``jobs`` > 1
    fans every suite out over one pool, and because points are recorded
    and metrics merged as results land in task order, the record is
    bit-identical to a serial run.  A record holding engine or figure
    points also carries the :func:`~repro.obs.perf.metrics_probe`.

    ``on_cell(suite, lines, done, total)`` fires in this process per cell
    (and once per suite with ``done=0`` before anything runs): ``lines``
    is what ``bench run`` prints for it, ``done``/``total`` count the
    suite's cells — what the live endpoint publishes as progress.
    """
    from ..obs.runner import ordered_map, resolve_jobs

    unknown = [name for name in selected if name not in SUITES]
    if unknown:
        raise BenchError(f"unknown suites {unknown}; available: {list(SUITES)}")
    tasks = [
        (name, cell)
        for name, suite in SUITES.items()
        if name in selected
        for cell in suite.cells(**selected[name])
    ]
    total = Counter(name for name, _ in tasks)
    done: Counter = Counter()
    heading = None
    if on_cell is not None:
        for name in total:
            on_cell(name, [], 0, total[name])

    def landed(task: tuple[str, Any], row: dict) -> None:
        nonlocal heading
        name, cell = task
        suite = SUITES[name]
        recorder.record_point(suite.point(cell, row))
        recorder.record_metrics(suite.metrics(cell, row))
        done[name] += 1
        if on_cell is not None:
            lines = [suite.line(cell, row)]
            if suite.heading(cell) != heading:
                heading = suite.heading(cell)
                lines.insert(0, heading)
            on_cell(name, [l for l in lines if l], done[name], total[name])

    ordered_map(_run_cell, tasks, min(resolve_jobs(jobs), len(tasks)) or 1, landed)
    if "engine" in selected or "figures" in selected:
        recorder.record_metrics(metrics_probe())
