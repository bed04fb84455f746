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

Every (algo, P) cell is an isolated :class:`~repro.sim.engine.Simulator`
addressed by value, so :func:`repro.bench.suites.run_suites` fans the
suite out like any other and the record is bit-identical to a serial run
(CI's ``scale-smoke`` job compares the two with ``--sim-tol 0``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Sequence

from ..util.errors import BenchError

__all__ = [
    "SCALE_ALGOS",
    "DEFAULT_POINTS",
    "ScaleTask",
    "ScaleResult",
    "identical_reps",
    "run_collective",
    "scale_point",
    "scale_cells",
    "run_scale_cell",
    "scale_metrics",
    "scale_line",
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
    #: active-set health snapshot of the run.
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


def identical_reps(once: Callable[[], Any], reps: int, what: str) -> Any:
    """``once()`` on ``reps`` fresh simulators.  Simulated results are
    deterministic, so every rep must return the same — a disagreement
    raises."""
    if reps < 1:
        raise BenchError(f"reps must be >= 1, got {reps}")
    first = once()
    for _ in range(reps - 1):
        if once() != first:  # pragma: no cover - determinism guard
            raise BenchError(f"{what}: reps disagree on simulated results")
    return first


def run_collective(algo: str, n_nodes: int, reps: int = 1) -> ScaleResult:
    """Run ``algo`` once per rep on a fresh rail-optimized platform
    (see :func:`identical_reps`)."""
    if algo not in SCALE_ALGOS:
        raise BenchError(f"unknown scale algo {algo!r}; have {SCALE_ALGOS}")
    from ..core.session import Session
    from ..hardware.topology import rail_optimized_platform
    from ..mpi.comm import Communicator

    def once() -> ScaleResult:
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
        health = session.active_health()
        return ScaleResult(
            algo=algo,
            n_nodes=n_nodes,
            elapsed_us=float(session.sim.now),
            events=int(session.sim.events_executed),
            peak_active_nodes=int(health.get("peak_active_nodes", 0)),
            engines_built=int(health.get("engines_built", 0)),
            idle_skip_ratio=float(health.get("idle_skip_ratio", 0.0)),
        )

    return identical_reps(once, reps, f"scale.{algo} P{n_nodes}")


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


def scale_cells(
    algos: Optional[Sequence[str]] = None,
    points: Optional[Sequence[int]] = None,
    reps: int = 2,
) -> list[ScaleTask]:
    """The suite's cells, algo-major (default: every algo at every
    ``DEFAULT_POINTS`` node count)."""
    return [
        ScaleTask(algo, int(n), reps)
        for algo in algos or SCALE_ALGOS
        for n in points or DEFAULT_POINTS
    ]


def run_scale_cell(cell: ScaleTask) -> dict[str, Any]:
    """Pool worker body: run one cell, return a primitive payload."""
    return asdict(run_collective(cell.algo, cell.n_nodes, reps=cell.reps))


def scale_metrics(cell: ScaleTask, row: dict[str, Any]) -> dict[str, float]:
    """Report-only metrics of one cell (deterministic kernel event count)."""
    return {f"scale.events.{cell.algo}.P{cell.n_nodes}": float(row["events"])}


def scale_line(cell: ScaleTask, row: dict[str, Any]) -> str:
    return (
        f"  scale.{cell.algo} P{cell.n_nodes}: {row['elapsed_us']:.2f} us"
        f" simulated, {row['events']} events,"
        f" peak active {row['peak_active_nodes']}"
    )
