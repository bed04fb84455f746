"""Parallel sweep runner: fan figure points out over worker processes.

Every (curve, size) point of a figure sweep is an isolated
:class:`~repro.sim.engine.Simulator` — no state crosses points — so a
sweep is embarrassingly parallel.  The only obstacle is that
:class:`~repro.bench.sweep.Curve` session factories are closures over
platform objects and cannot be pickled.  The runner therefore ships
*names, not closures*: a :class:`PointTask` carries
``(figure_id, label, size, reps, warmup)``; the worker rebuilds the
figure's :class:`~repro.bench.figures.FigurePlan` locally (cached per
process), looks the curve up by label, and runs the ping-pong.

Determinism contract (tested in ``tests/obs/test_runner.py`` and gated
in CI): ``run_sweep_parallel`` produces **bit-identical** results to the
serial :func:`~repro.bench.sweep.run_sweep` —

* each point runs on a fresh simulator whose event order depends only on
  insertion order (never ``id()``-hash order; see
  :mod:`repro.sim.engine` and :mod:`repro.sim.flows`), so a point's
  numbers are the same in any process;
* plan rebuilding is deterministic (``figure_plan(figure_id)`` with
  default inputs — non-portable plans are rejected);
* ``multiprocessing.Pool.map`` returns results in task order, and the
  merge is a plain ordered insert, so record layout matches too.

Workers default to the ``fork`` start method where available (cheap, no
re-import); override with ``REPRO_MP_START=spawn|forkserver|fork``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..util.errors import BenchError

if TYPE_CHECKING:  # pragma: no cover
    from ..bench.figures import FigurePlan
    from ..bench.sweep import SweepResult

__all__ = ["PointTask", "run_point", "run_sweep_parallel", "resolve_jobs", "ordered_map"]


@dataclass(frozen=True)
class PointTask:
    """One figure point, addressed by name so it can cross processes."""

    figure_id: str
    label: str
    size: int
    reps: int
    warmup: int


#: per-process plan cache: a worker serving many points of one figure
#: rebuilds (and, for fig7, samples) only once.
_PLAN_CACHE: dict[str, Any] = {}


def _curve_for(figure_id: str, label: str):
    plan = _PLAN_CACHE.get(figure_id)
    if plan is None:
        from ..bench.figures import figure_plan

        plan = _PLAN_CACHE[figure_id] = figure_plan(figure_id)
    for curve in plan.curves:
        if curve.label == label:
            return curve
    raise BenchError(f"figure {figure_id!r} has no curve {label!r}")


def run_point(task: PointTask) -> dict[str, Any]:
    """Measure one point in the current process (the pool worker body).

    Returns a plain dict (not a :class:`PingPongResult`) so the payload
    crossing the process boundary is primitive and version-stable.
    """
    from ..bench.pingpong import run_pingpong
    from .log import get_logger

    log = get_logger(point_id=f"{task.figure_id}/{task.label}/{task.size}")
    log.debug("point.start", figure=task.figure_id, curve=task.label, size=task.size)
    curve = _curve_for(task.figure_id, task.label)
    session = curve.session_factory()
    result = run_pingpong(
        session, task.size, segments=curve.segments, reps=task.reps, warmup=task.warmup
    )
    log.debug(
        "point.done",
        figure=task.figure_id,
        curve=task.label,
        size=task.size,
        one_way_us=result.one_way_us,
    )
    return {
        "label": task.label,
        "size": task.size,
        "total_size": result.total_size,
        "segments": result.segments,
        "reps": result.reps,
        "one_way_us": result.one_way_us,
    }


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``→1 serial, ``0``→all cores."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise BenchError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _mp_context():
    method = os.environ.get("REPRO_MP_START")
    if method:
        try:
            return multiprocessing.get_context(method)
        except ValueError as exc:
            raise BenchError(f"bad REPRO_MP_START={method!r}: {exc}") from exc
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def ordered_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    n_procs: int,
    on_result: Optional[Callable[[Any, Any], None]] = None,
) -> list:
    """``[fn(t) for t in tasks]``, serially or over ``n_procs`` workers.

    The one fan-out of the repo (figure sweeps, the chaos grid, the
    scaling cells).  ``on_result(task, result)`` fires in the parent as
    each result lands, **in task order** either way, so a live publisher
    can stream progress and the merged list is the same with or without
    workers.  ``chunksize=1``: tasks differ in cost by orders of
    magnitude (4 B vs 8 MB points, P=16 vs P=1024 cells), so
    fine-grained dealing keeps the pool balanced; ``imap`` (not ``map``)
    so results stream back while later tasks still run.
    """
    results = []
    with contextlib.ExitStack() as stack:
        if n_procs <= 1:
            landed = map(fn, tasks)
        else:
            pool = stack.enter_context(_mp_context().Pool(processes=n_procs))
            landed = pool.imap(fn, tasks, chunksize=1)
        for task, result in zip(tasks, landed):
            results.append(result)
            if on_result is not None:
                on_result(task, result)
    return results


def run_sweep_parallel(
    plan: "FigurePlan",
    reps: int = 3,
    warmup: int = 1,
    jobs: int = 2,
    on_point: Optional[Callable[[PointTask, dict], None]] = None,
) -> "SweepResult":
    """Measure every point of ``plan`` across a process pool.

    Mirrors :func:`repro.bench.sweep.run_sweep` exactly — validation,
    skip rules for sizes smaller than the segment count, ragged-size
    dropping — but runs points concurrently and merges them back in task
    order.

    ``on_point(task, row)`` fires in the parent process as each point's
    result lands, **in task order** (see :func:`ordered_map`), so a live
    publisher can stream incremental snapshots without touching the
    determinism contract: the merged result is bit-identical with or
    without the callback.
    """
    from ..bench.pingpong import PingPongResult
    from ..bench.sweep import SweepResult

    if not plan.portable:
        raise BenchError(
            f"plan {plan.figure_id!r} holds caller-supplied state and cannot"
            " be rebuilt by workers; run it serially"
        )
    curves = list(plan.curves)
    sizes = list(plan.sizes)
    if not curves:
        raise BenchError("no curves to sweep")
    if not sizes:
        raise BenchError("no sizes to sweep")
    labels = [c.label for c in curves]
    if len(set(labels)) != len(labels):
        raise BenchError(f"duplicate curve labels: {labels}")
    from .log import get_logger

    log = get_logger()
    tasks = [
        PointTask(plan.figure_id, curve.label, size, reps, warmup)
        for curve in curves
        for size in sizes
        if size >= curve.segments
    ]
    n_procs = min(jobs, len(tasks)) or 1
    log.info(
        "sweep.start", figure=plan.figure_id, points=len(tasks), jobs=n_procs
    )
    rows = ordered_map(run_point, tasks, n_procs, on_point)

    out = SweepResult(sizes=sizes, curves=labels)
    for label in labels:
        out.results[label] = {}
    for task, row in zip(tasks, rows):
        out.results[task.label][task.size] = PingPongResult(
            total_size=row["total_size"],
            segments=row["segments"],
            reps=row["reps"],
            one_way_us=row["one_way_us"],
        )
    # drop sizes skipped by every curve; keep ragged starts otherwise
    out.sizes = [s for s in out.sizes if any(s in out.results[l] for l in labels)]
    log.info("sweep.done", figure=plan.figure_id, points=len(rows))
    return out
