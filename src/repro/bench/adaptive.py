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
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..util.errors import BenchError
from ..util.units import MB

__all__ = [
    "ADAPTIVE_STRATEGIES",
    "DEGRADE_AT_US",
    "AdaptiveResult",
    "run_adaptive_case",
    "adaptive_point",
    "run_adaptive_suite",
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
    """Run the degrade-recovery workload under ``strategy``.

    The simulated latency and event count must be identical across reps
    (fresh simulator each time) — a disagreement raises.
    """
    from ..core.session import Session
    from ..core.strategies.registry import available_strategies
    from ..faults.plan import FaultEvent, FaultPlan
    from ..hardware.presets import paper_platform

    if strategy not in available_strategies():
        raise BenchError(
            f"unknown adaptive bench strategy {strategy!r};"
            f" registered: {available_strategies()}"
        )
    if reps < 1:
        raise BenchError(f"reps must be >= 1, got {reps}")

    elapsed_us = events = None
    steady_share: Optional[float] = None
    resamples = 0
    switches: Optional[int] = None
    for _ in range(reps):
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
        ratios = (
            strat.current_ratios() if hasattr(strat, "current_ratios") else None
        )
        rep_share = None if ratios is None else float(ratios[0])
        rep_switches = (
            len(strat.switches) if hasattr(strat, "switches") else None
        )
        rep_elapsed = workload_done_us
        rep_events = int(session.sim.events_executed)
        if elapsed_us is not None and (
            rep_elapsed != elapsed_us or rep_events != events
        ):  # pragma: no cover - determinism guard
            raise BenchError(
                f"adaptive.degrade_recovery {strategy}: reps disagree on"
                " simulated results"
            )
        elapsed_us, events = rep_elapsed, rep_events
        steady_share, switches = rep_share, rep_switches
        resamples = int(session.metrics.snapshot().get("fault.resamples", 0))
    return AdaptiveResult(
        strategy=strategy,
        elapsed_us=elapsed_us,
        events=events,
        steady_share=steady_share,
        resamples=resamples,
        switches=switches,
    )


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


def run_adaptive_suite(
    recorder,
    strategies: Sequence[str] = ADAPTIVE_STRATEGIES,
    reps: int = 1,
    publish: Optional[Callable[[str, int, int], None]] = None,
) -> list[AdaptiveResult]:
    """Run the degrade-recovery cell per strategy and record everything.

    ``publish(cell, done, total)`` fires after each cell for the live
    endpoint's incremental snapshots.
    """
    if not strategies:
        raise BenchError("no adaptive strategies to run")
    if publish:
        publish("", 0, len(strategies))
    out = []
    for done, name in enumerate(strategies, start=1):
        r = run_adaptive_case(name, reps=reps)
        out.append(r)
        recorder.record_point(adaptive_point(r))
        if publish:
            publish(f"adaptive.degrade_recovery.{r.strategy}", done, len(strategies))

    # merge (don't replace) the metrics snapshot: earlier suites may have
    # recorded the probe already.
    snap = dict(getattr(recorder, "_metrics", {}) or {})
    for r in out:
        if r.steady_share is not None:
            snap[f"adaptive.steady_share.{r.strategy}"] = r.steady_share
        if r.switches is not None:
            snap[f"adaptive.switches.{r.strategy}"] = float(r.switches)
        snap[f"adaptive.resamples.{r.strategy}"] = float(r.resamples)
    recorder.record_metrics(snap)
    return out
