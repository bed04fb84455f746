"""Collectives scaling suite: one curve point per node count P.

The scale-out story of this repo (topology presets, lazy engines, the
active-set pump) is only honest if it is *measured* at four-digit node
counts.  This module runs one collective — multi-lane allreduce,
multi-lane barrier, or the NIC combining-tree barrier — on a
rail-optimized platform at each P in ``DEFAULT_POINTS`` and records:

* the **simulated** completion latency as an ``elapsed_us`` point
  (``kind="collective"``, ``bench="scale.<algo>"``, ``curve="P<n>"``),
  which is deterministic and therefore gated by ``repro bench compare``
  exactly like a figure point;
* ``scale.events.<algo>.P<n>`` report-only metrics (kernel events the
  cell executed, deterministic), so a change in event count at scale
  shows up in the compare delta table.

Every (algo, P) task is an isolated :class:`~repro.sim.engine.Simulator`,
so the suite is embarrassingly parallel; ``run_scale_suite(jobs=...)``
mirrors :mod:`repro.obs.runner` — tasks are shipped by value, results
merge in task order — and is bit-identical to a serial run (CI's
``scale-smoke`` job compares the two with ``--sim-tol 0``).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Sequence

from ..util.errors import BenchError

__all__ = [
    "SCALE_ALGOS",
    "DEFAULT_POINTS",
    "ScaleTask",
    "ScaleResult",
    "run_collective",
    "run_scale_task",
    "scale_point",
    "run_scale_suite",
]

#: collective algorithms the suite knows how to run.
SCALE_ALGOS = ("multilane_allreduce", "multilane_barrier", "nic_barrier")

#: the paper-scale node counts of the headline curve.
DEFAULT_POINTS = (16, 64, 256, 1024)

#: elements in the allreduce input vector (one double per lane keeps the
#: reduction honest without drowning the wire in payload bytes).
VECTOR_LEN = 8

_STRATEGY = "aggreg_multirail"


@dataclass(frozen=True)
class ScaleTask:
    """One (algo, node-count) cell, addressed by value so it can cross
    processes (the pool worker rebuilds the platform locally)."""

    algo: str
    n_nodes: int
    reps: int


@dataclass(frozen=True)
class ScaleResult:
    """One measured cell of the scaling curve."""

    algo: str
    n_nodes: int
    #: simulated completion latency of the collective (deterministic).
    elapsed_us: float
    #: kernel events the run executed (deterministic).
    events: int
    #: active-set health snapshot of the last rep.
    peak_active_nodes: int
    engines_built: int
    idle_skip_ratio: float


def _rank_body(algo: str, ep, results: dict):
    from ..mpi.collectives import multilane_allreduce, multilane_barrier, nic_barrier

    if algo == "multilane_allreduce":
        values = [float(ep.rank + 1)] * VECTOR_LEN
        out = yield from multilane_allreduce(ep, values)
        results[ep.rank] = out
    elif algo == "multilane_barrier":
        yield from multilane_barrier(ep)
        results[ep.rank] = True
    elif algo == "nic_barrier":
        yield from nic_barrier(ep)
        results[ep.rank] = True
    else:  # pragma: no cover - guarded by run_collective
        raise BenchError(f"unknown scale algo {algo!r}")


def run_collective(algo: str, n_nodes: int, reps: int = 1) -> ScaleResult:
    """Run ``algo`` once per rep on a fresh rail-optimized platform.

    The simulated latency and event count must be identical across reps
    (fresh simulator each time) — a disagreement raises.
    """
    if algo not in SCALE_ALGOS:
        raise BenchError(f"unknown scale algo {algo!r}; have {SCALE_ALGOS}")
    if reps < 1:
        raise BenchError(f"reps must be >= 1, got {reps}")
    from ..core.session import Session
    from ..hardware.topology import rail_optimized_platform
    from ..mpi.comm import Communicator

    elapsed_us = events = None
    health: dict[str, Any] = {}
    for _ in range(reps):
        spec = rail_optimized_platform(n_nodes)
        session = Session(spec, strategy=_STRATEGY)
        comm = Communicator(session, name=f"scale.{algo}")
        results: dict[int, Any] = {}

        def wrapper(rank):
            yield from _rank_body(algo, comm.endpoint(rank), results)

        procs = [
            session.spawn(wrapper(r), name=f"scale.r{r}") for r in range(n_nodes)
        ]
        session.run_until_idle()
        if not all(p.done for p in procs):
            raise BenchError(f"scale.{algo} P{n_nodes}: collective deadlocked")
        _check_results(algo, n_nodes, results)
        rep_elapsed = session.sim.now
        rep_events = session.sim.events_executed
        if elapsed_us is not None and (
            rep_elapsed != elapsed_us or rep_events != events
        ):  # pragma: no cover - determinism guard
            raise BenchError(
                f"scale.{algo} P{n_nodes}: reps disagree on simulated results"
            )
        elapsed_us, events = rep_elapsed, rep_events
        health = session.active_health()
    return ScaleResult(
        algo=algo,
        n_nodes=n_nodes,
        elapsed_us=float(elapsed_us),
        events=int(events),
        peak_active_nodes=int(health.get("peak_active_nodes", 0)),
        engines_built=int(health.get("engines_built", 0)),
        idle_skip_ratio=float(health.get("idle_skip_ratio", 0.0)),
    )


def _check_results(algo: str, n_nodes: int, results: dict) -> None:
    if len(results) != n_nodes:
        raise BenchError(
            f"scale.{algo} P{n_nodes}: {len(results)}/{n_nodes} ranks finished"
        )
    if algo == "multilane_allreduce":
        expected = [float(n_nodes * (n_nodes + 1) // 2)] * VECTOR_LEN
        for rank, out in results.items():
            if out != expected:
                raise BenchError(
                    f"scale.{algo} P{n_nodes}: rank {rank} reduced wrong"
                    f" (got {out[:2]}..., want {expected[0]})"
                )


def scale_point(result: ScaleResult) -> dict[str, Any]:
    """The gateable run-record point of one scaling cell."""
    return {
        "kind": "collective",
        "bench": f"scale.{result.algo}",
        "curve": f"P{result.n_nodes}",
        "strategy": _STRATEGY,
        "size": VECTOR_LEN * 8,
        "count": result.n_nodes,
        "elapsed_us": result.elapsed_us,
    }


def run_scale_task(task: ScaleTask) -> dict[str, Any]:
    """Pool worker body: run one cell, return a primitive payload."""
    return asdict(run_collective(task.algo, task.n_nodes, reps=task.reps))


def run_scale_suite(
    recorder,
    algos: Sequence[str] = SCALE_ALGOS,
    points: Sequence[int] = DEFAULT_POINTS,
    reps: int = 2,
    jobs: Optional[int] = None,
    publish: Optional[Callable[[str, int, int], None]] = None,
) -> list[ScaleResult]:
    """Run the scaling curve and push it into ``recorder``.

    ``jobs`` > 1 fans the (algo, P) cells over a process pool; simulated
    results — and the record's ``points`` section — are bit-identical to
    a serial run (fresh simulator per cell, task-order merge).

    ``publish(cell, done, total)`` fires after each cell for the live
    endpoint's incremental snapshots.
    """
    from ..obs.runner import ordered_map, resolve_jobs

    for algo in algos:
        if algo not in SCALE_ALGOS:
            raise BenchError(f"unknown scale algo {algo!r}; have {SCALE_ALGOS}")
    tasks = [ScaleTask(algo, int(n), reps) for algo in algos for n in points]
    if not tasks:
        raise BenchError("no scale cells to run")
    n_procs = min(resolve_jobs(jobs), len(tasks)) or 1
    done = itertools.count(1)

    def on_cell(task: ScaleTask, _row: dict) -> None:
        publish(f"scale.{task.algo}.P{task.n_nodes}", next(done), len(tasks))

    if publish:
        publish("", 0, len(tasks))
    # task-order merge: the record layout is serial-identical
    rows = ordered_map(run_scale_task, tasks, n_procs, on_cell if publish else None)

    out = []
    scale_metrics: dict[str, float] = {}
    for row in rows:
        r = ScaleResult(**row)
        out.append(r)
        recorder.record_point(scale_point(r))
        scale_metrics[f"scale.events.{r.algo}.P{r.n_nodes}"] = float(r.events)
    # merge (don't replace) the metrics snapshot: the engine suite may
    # already have recorded the probe.
    snap = dict(getattr(recorder, "_metrics", {}) or {})
    snap.update(scale_metrics)
    recorder.record_metrics(snap)
    return out
