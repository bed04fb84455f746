"""Adaptive degrade-recovery bench: one gated point per adaptive strategy.

PR 10's runtime-adaptive strategies (:mod:`repro.core.strategies.adaptive`)
claim to re-converge after a mid-run bandwidth degrade with *no* sampling
re-run.  This suite turns that claim into a regression-gated number: a
fixed rendezvous-heavy workload (sequential 2 MB sends) runs under a
deterministic mid-run ``degrade`` fault, once per adaptive strategy, and
records

* the **simulated** completion latency as an ``elapsed_us`` point
  (``kind="adaptive"``, ``bench="adaptive.degrade_recovery"``,
  ``curve=<strategy>``) — the split ratios a strategy converges to feed
  straight into the chunk schedule, so any behaviour drift in the
  feedback loop moves this number and fails ``repro bench compare``;
* ``adaptive.steady_share.<strategy>`` / ``adaptive.switches.<strategy>``
  report-only metrics so the converged operating point is visible in the
  compare delta table.

Everything is on the sim clock (seeded payloads, fixed fault plan), so a
repeated run is bit-identical — CI's ``adaptive-chaos`` job compares two
records with ``--sim-tol 0``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Optional, Sequence

from ..util.errors import BenchError
from ..util.units import MB
from .scale import identical_reps

__all__ = [
    "ADAPTIVE_STRATEGIES",
    "DEGRADE_AT_US",
    "AdaptiveResult",
    "AdaptiveCell",
    "run_adaptive_case",
    "adaptive_point",
    "adaptive_cells",
    "run_adaptive_cell",
    "adaptive_metrics",
    "adaptive_line",
]

#: the strategies this suite races through the degrade-recovery workload.
ADAPTIVE_STRATEGIES = ("feedback", "tournament")

#: the mid-run fault: halve the first rail's bandwidth at this sim time
#: and keep it degraded for the rest of the run.
DEGRADE_AT_US = 2000.0
DEGRADE_FACTOR = 0.5
DEGRADE_FOR_US = 1_000_000.0

#: workload shape: sequential rendezvous sends, each large enough that the
#: split planner stripes both rails on every transfer.
N_SENDS = 8
SIZE = 2 * MB
POLL_US = 25.0


@dataclass(frozen=True)
class AdaptiveCell:
    """One (strategy, reps) cell, addressed by value so it can cross
    processes."""

    strategy: str
    reps: int


@dataclass(frozen=True)
class AdaptiveResult:
    """One measured degrade-recovery cell."""

    strategy: str
    #: simulated completion time of the whole workload (deterministic).
    elapsed_us: float
    #: kernel events the run executed (deterministic).
    events: int
    #: converged split share of the degraded rail (None when the active
    #: strategy exposes no ratios, e.g. a tournament that settled on a
    #: non-splitting candidate).
    steady_share: Optional[float]
    #: sampling re-runs the fault layer performed — provably 0 for the
    #: observation-driven strategies (they carry no sample table).
    resamples: int
    #: tournament switch count (None for plain strategies).
    switches: Optional[int]


def _workload(session) -> float:
    """Sequential seeded 2 MB sends node0 -> node1, verified on arrival.

    Returns the simulated completion time of the workload itself — the
    last receive landing — *not* ``sim.now`` after ``run_until_idle``,
    which is dominated by the fault plan's recovery event long after the
    traffic drained.
    """
    from ..sim.process import Timeout

    datas = [random.Random(i).randbytes(SIZE) for i in range(N_SENDS)]
    recvs = [session.interface(1).irecv(0, i + 1) for i in range(N_SENDS)]
    done_at: dict[str, float] = {}

    def sender(iface):
        for i, data in enumerate(datas):
            req = iface.isend(1, i + 1, data)
            while not req.done:
                yield Timeout(POLL_US)
        while not all(r.done for r in recvs):
            yield Timeout(POLL_US)
        done_at["t"] = session.sim.now

    session.spawn(sender(session.interface(0)))
    session.run_until_idle()
    for i, (data, rep) in enumerate(zip(datas, recvs)):
        if rep.data != data:
            raise BenchError(
                f"adaptive.degrade_recovery: send {i + 1} arrived corrupted"
            )
    if "t" not in done_at:  # pragma: no cover - deadlock guard
        raise BenchError("adaptive.degrade_recovery: workload never completed")
    return float(done_at["t"])


def run_adaptive_case(strategy: str, reps: int = 1) -> AdaptiveResult:
    """Run the degrade-recovery workload under ``strategy``, once per rep
    on a fresh simulator (see :func:`~repro.bench.scale.identical_reps`)."""
    from ..core.session import Session
    from ..core.strategies.adaptive import TournamentStrategy
    from ..core.strategies.registry import available_strategies
    from ..faults.plan import FaultEvent, FaultPlan
    from ..hardware.presets import paper_platform

    if strategy not in available_strategies():
        raise BenchError(
            f"unknown adaptive bench strategy {strategy!r};"
            f" registered: {available_strategies()}"
        )

    def once() -> AdaptiveResult:
        spec = paper_platform()
        plan = FaultPlan(
            [
                FaultEvent(
                    "degrade",
                    DEGRADE_AT_US,
                    spec.rails[0].name,
                    duration_us=DEGRADE_FOR_US,
                    factor=DEGRADE_FACTOR,
                )
            ]
        )
        session = Session(spec, strategy=strategy, faults=plan)
        workload_done_us = _workload(session)

        strat = session.engine(0).strategy
        ratios = strat.current_ratios()
        return AdaptiveResult(
            strategy=strategy,
            elapsed_us=workload_done_us,
            events=int(session.sim.events_executed),
            steady_share=None if ratios is None else float(ratios[0]),
            resamples=int(session.metrics.snapshot().get("fault.resamples", 0)),
            switches=(
                len(strat.switches) if isinstance(strat, TournamentStrategy) else None
            ),
        )

    return identical_reps(once, reps, f"adaptive.degrade_recovery {strategy}")


def adaptive_point(result: AdaptiveResult) -> dict[str, Any]:
    """The gateable run-record point of one degrade-recovery cell."""
    return {
        "kind": "adaptive",
        "bench": "adaptive.degrade_recovery",
        "curve": result.strategy,
        "strategy": result.strategy,
        "size": SIZE,
        "count": N_SENDS,
        "elapsed_us": result.elapsed_us,
    }


def adaptive_cells(
    strategies: Sequence[str] = ADAPTIVE_STRATEGIES, reps: int = 1
) -> list[AdaptiveCell]:
    """The suite's cells: one degrade-recovery run per adaptive strategy."""
    if not strategies:
        raise BenchError("no adaptive strategies to run")
    return [AdaptiveCell(name, reps) for name in strategies]


def run_adaptive_cell(cell: AdaptiveCell) -> dict[str, Any]:
    """Pool worker body: run one cell, return a primitive payload."""
    return asdict(run_adaptive_case(cell.strategy, reps=cell.reps))


def adaptive_metrics(cell: AdaptiveCell, row: dict[str, Any]) -> dict[str, float]:
    """Report-only metrics of one cell: the converged operating point."""
    out = {f"adaptive.resamples.{cell.strategy}": float(row["resamples"])}
    if row["steady_share"] is not None:
        out[f"adaptive.steady_share.{cell.strategy}"] = row["steady_share"]
    if row["switches"] is not None:
        out[f"adaptive.switches.{cell.strategy}"] = float(row["switches"])
    return out


def adaptive_line(cell: AdaptiveCell, row: dict[str, Any]) -> str:
    share = "n/a" if row["steady_share"] is None else f"{row['steady_share']:.3f}"
    return (
        f"  adaptive.degrade_recovery {cell.strategy}:"
        f" {row['elapsed_us']:.2f} us simulated,"
        f" steady share {share},"
        f" resamples {row['resamples']}"
        + ("" if row["switches"] is None else f", switches {row['switches']}")
    )
