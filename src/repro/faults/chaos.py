"""Chaos harness: every strategy versus randomized fault plans.

Each chaos *case* is one ``(strategy, seed)`` pair: a fresh two-node
session whose strategy is wrapped in
:class:`~repro.core.strategies.checker.CheckedStrategy` (record mode), a
seeded random traffic mix (real payloads, both directions, eager and
rendezvous sizes, spread over the fault horizon) and the
:func:`~repro.faults.plan.random_plan` for the same seed.  After the
simulation drains, delivery invariants are checked:

* **delivery** — every posted receive completed with exactly the bytes
  the matching send submitted, in channel order (exactly once semantics
  end-to-end, under outages, drops, dups and flaps);
* **checker** — no strategy-contract violation was recorded, and the
  checkers drained clean (nothing packed was stranded, no control entry
  dropped);
* **stranded** — no retransmission left queued, no rendezvous open on
  either side, no DMA flow still in flight;
* **accounting** — ``fault.retries`` equals ``fault.lost.eager +
  fault.lost.chunks`` (every loss retried exactly once per loss event)
  and ``fault.rx_dropped`` equals ``fault.dup_injected`` (every injected
  duplicate dropped at the receiver, retries never duplicate);
* **schema** — no undeclared metric name was emitted.

Cases are independent simulations, so the sweep parallelizes exactly like
the figure runner (:mod:`repro.obs.runner`): picklable ``(strategy,
seed)`` tasks, ``fork`` pool, results merged in task order.  Each case
also returns a :func:`case digest <run_case>` — final simulated time,
kernel event count, payload CRCs and the full metrics snapshot — which
``tests/obs/test_runner.py`` asserts is bit-identical serial vs parallel.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..core.session import Session
from ..core.strategies.checker import CheckedStrategy
from ..core.strategies.registry import available_strategies
from ..hardware.presets import paper_platform
from ..obs.log import get_logger
from ..obs.runner import ordered_map, resolve_jobs
from ..sim.process import Timeout
from ..util.errors import ConfigError
from ..util.units import KB
from .plan import FaultPlan, random_plan

__all__ = [
    "ChaosCase",
    "ChaosReport",
    "run_case",
    "session_violations",
    "run_chaos",
    "chaos_strategies",
    "save_failing_plans",
]

#: fault horizon of one case; traffic is injected over the first 80%.
DEFAULT_HORIZON_US = 5000.0
#: messages per case (split randomly between the two directions).
DEFAULT_MESSAGES = 14
#: sizes the traffic mix draws from — below and above every preset rail's
#: eager threshold, so both the PIO and the DMA failover paths are hit.
_SIZES = (8, 64, 1024, 8 * KB, 64 * KB, 256 * KB)
#: logical channels per direction.
_TAGS = (1, 2, 3)


@dataclass(frozen=True)
class ChaosCase:
    """One (strategy, seed) chaos task — primitive, so it can cross
    process boundaries like :class:`repro.obs.runner.PointTask`."""

    strategy: str
    seed: int
    horizon_us: float = DEFAULT_HORIZON_US
    messages: int = DEFAULT_MESSAGES


# ---------------------------------------------------------------------- #
# one case
# ---------------------------------------------------------------------- #
def _build_traffic(rng: random.Random, messages: int, horizon_us: float):
    """Seeded message list: ``(at_us, src, dst, tag, payload_bytes)``.

    Times are sorted, so per-channel submission order is chronological and
    the receiver can pre-post every receive in matching order.
    """
    out = []
    for _ in range(messages):
        src = rng.randint(0, 1)
        out.append(
            (
                round(rng.uniform(0.0, 0.8) * horizon_us, 3),
                src,
                1 - src,
                rng.choice(_TAGS),
                rng.randbytes(rng.choice(_SIZES)),
            )
        )
    out.sort(key=lambda m: m[0])
    return out


def _sender(iface, sim, plan: Sequence[tuple]):
    """Application process: submit each message at its scheduled time."""
    for at_us, _src, dst, tag, data in plan:
        if at_us > sim.now:
            yield Timeout(at_us - sim.now)
        iface.isend(dst, tag, data)


def session_violations(session: Session) -> list[str]:
    """The invariants any drained faulted session must satisfy, whatever
    its traffic was: checker, stranded, accounting and schema (see the
    module docstring).  Needs :class:`CheckedStrategy`-wrapped strategies."""
    violations: list[str] = []
    # checker: contract violations recorded during the run + drain state
    for engine in session.engines.built():
        checker = engine.strategy
        assert isinstance(checker, CheckedStrategy)
        checker.check_drained()
        violations.extend(f"node{engine.node_id} {v}" for v in checker.violations)
    # stranded: nothing waiting on a rail that will never carry it
    for engine in session.engines.built():
        if engine._retrans:
            violations.append(
                f"stranded: node{engine.node_id} still queues"
                f" {len(engine._retrans)} retransmission entries"
            )
        if engine.rdv.outstanding_out or engine.rdv.outstanding_in:
            violations.append(
                f"stranded: node{engine.node_id} rendezvous open"
                f" (out={engine.rdv.outstanding_out}, in={engine.rdv.outstanding_in})"
            )
    in_flight = session.platform.flownet.active_flows
    if in_flight:
        violations.append(f"stranded: {len(in_flight)} DMA flows still in flight")
    # accounting: the fault counters must balance
    snap = session.metrics.snapshot()

    def total(prefix: str) -> float:
        return sum(
            v for k, v in snap.items()
            if isinstance(v, (int, float)) and (k == prefix or k.startswith(prefix + "{"))
        )

    retries = total("fault.retries")
    losses = total("fault.lost.eager") + total("fault.lost.chunks")
    if retries != losses:
        violations.append(
            f"accounting: fault.retries={retries:g} but losses={losses:g}"
            " (each loss must be retried exactly once)"
        )
    dropped = total("fault.rx_dropped")
    dups = total("fault.dup_injected")
    if dropped != dups:
        violations.append(
            f"accounting: fault.rx_dropped={dropped:g} but"
            f" fault.dup_injected={dups:g} (only injected duplicates may"
            " be dropped, and all of them must be)"
        )
    undeclared = session.metrics.undeclared()
    if undeclared:
        violations.append(f"schema: undeclared metrics {sorted(undeclared)}")
    return violations


def run_case(case: ChaosCase, plan: Optional[FaultPlan] = None) -> dict[str, Any]:
    """Run one chaos case; returns a primitive result dict.

    Keys: ``strategy``, ``seed``, ``ok``, ``violations`` (strings),
    ``plan`` (the fault plan as a dict, for replay artifacts) and
    ``digest`` (see module docstring).
    """
    log = get_logger(case_id=f"{case.strategy}/seed{case.seed}")
    log.debug("chaos.case.start", strategy=case.strategy, seed=case.seed)
    spec = paper_platform()
    if plan is None:
        plan = random_plan(case.seed, spec, horizon_us=case.horizon_us)
    session = Session(
        spec,
        strategy=CheckedStrategy.wrapping(case.strategy, record_only=True),
        faults=plan,
    )
    rng = random.Random(case.seed)
    traffic = _build_traffic(rng, case.messages, case.horizon_us)

    recvs: list[tuple[int, int, int, bytes, Any]] = []
    for node in (0, 1):
        mine = [m for m in traffic if m[1] == node]
        session.spawn(
            _sender(session.interface(node), session.sim, mine), name=f"chaos-tx{node}"
        )
        # pre-post every receive in per-channel submission order (seq
        # matching pairs the nth send with the nth post per channel)
        for _at, src, dst, tag, data in [m for m in traffic if m[2] == node]:
            recvs.append((src, dst, tag, data, session.interface(node).irecv(src, tag)))

    session.run_until_idle()

    violations: list[str] = []
    # delivery: every receive completed with exactly the sent bytes
    for i, (src, dst, tag, data, req) in enumerate(recvs):
        chan = f"{src}->{dst} tag={tag}"
        if req.payload is None:
            violations.append(f"delivery: message #{i} on {chan} never arrived")
        elif req.payload.data != data:
            violations.append(
                f"delivery: message #{i} on {chan} corrupted"
                f" ({req.payload.size}B vs {len(data)}B sent)"
            )
    violations += session_violations(session)
    snap = session.metrics.snapshot()

    # stable, fully primitive digest for bit-identity comparisons
    digest = {
        "final_time_us": session.sim.now,
        "events_executed": session.sim.events_executed,
        "payload_crcs": [
            zlib.crc32(req.payload.data)
            if req.payload is not None and req.payload.data is not None
            else -1
            for (_s, _d, _t, _data, req) in recvs
        ],
        "metrics": snap,
    }
    if violations:
        log.warn(
            "chaos.case.fail",
            strategy=case.strategy,
            seed=case.seed,
            violations=len(violations),
            first=violations[0],
        )
    else:
        log.debug("chaos.case.pass", strategy=case.strategy, seed=case.seed)
    return {
        "strategy": case.strategy,
        "seed": case.seed,
        "ok": not violations,
        "violations": violations,
        "plan": plan.to_dict(),
        "digest": digest,
    }


def _run_case_task(case: ChaosCase) -> dict[str, Any]:
    """Pool worker body (top-level so it pickles under ``spawn`` too)."""
    return run_case(case)


# ---------------------------------------------------------------------- #
# the sweep
# ---------------------------------------------------------------------- #
def chaos_strategies(names: str | Sequence[str] = "all") -> list[str]:
    """Resolve a ``--strategies`` value: ``"all"`` or a name list/CSV."""
    if names == "all":
        return available_strategies()
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    known = set(available_strategies())
    out = list(names)
    for name in out:
        if name not in known:
            raise ConfigError(
                f"unknown strategy {name!r}; available: {sorted(known)}"
            )
    if not out:
        raise ConfigError("no strategies selected")
    return out


@dataclass
class ChaosReport:
    """All case results of one chaos sweep, in task order."""

    cases: list[dict[str, Any]]
    #: event-log correlation id of the producing sweep (ledger join key).
    run_id: Optional[str] = None

    @property
    def failures(self) -> list[dict[str, Any]]:
        return [c for c in self.cases if not c["ok"]]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (``repro chaos --save-report`` / ledger ingest)."""
        from ..obs.perf import git_revision

        sha, dirty = git_revision(os.path.dirname(os.path.abspath(__file__)))
        return {
            "run_id": self.run_id,
            "git_sha": sha,
            "git_dirty": dirty,
            "cases": self.cases,
        }

    def summary(self) -> str:
        lines = [
            f"chaos: {len(self.cases)} cases,"
            f" {len(self.cases) - len(self.failures)} passed,"
            f" {len(self.failures)} failed"
        ]
        for c in self.failures:
            lines.append(f"  FAIL {c['strategy']} seed={c['seed']}:")
            for v in c["violations"]:
                lines.append(f"    - {v}")
        return "\n".join(lines)


def run_chaos(
    seeds: int | Sequence[int] = 20,
    strategies: str | Sequence[str] = "all",
    jobs: Optional[int] = None,
    horizon_us: float = DEFAULT_HORIZON_US,
    messages: int = DEFAULT_MESSAGES,
    on_case: Optional[Callable[[ChaosCase, dict], None]] = None,
) -> ChaosReport:
    """Run the full chaos matrix: every strategy under every seed.

    ``seeds`` may be a count (seeds ``0..n-1``) or an explicit sequence;
    ``jobs`` follows the figure-runner convention (``None``→serial,
    ``0``→all cores).  Results are deterministic and independent of
    ``jobs`` — each case is an isolated simulator.

    ``on_case(case, row)`` fires in the parent as each case's result
    lands, in task order (``ordered_map``), so the live endpoint can publish
    incremental snapshots; the report is identical with or without it.
    """
    log = get_logger()
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    if not seed_list:
        raise ConfigError("no seeds to run")
    tasks = [
        ChaosCase(strategy, seed, horizon_us=horizon_us, messages=messages)
        for strategy in chaos_strategies(strategies)
        for seed in seed_list
    ]
    n_procs = min(resolve_jobs(jobs), len(tasks))
    log.info("chaos.start", cases=len(tasks), jobs=n_procs)
    rows: list[dict] = ordered_map(_run_case_task, tasks, n_procs, on_case)
    failed = sum(1 for r in rows if not r["ok"])
    log.info("chaos.done", cases=len(rows), failed=failed)
    return ChaosReport(rows, run_id=log.bound.get("run_id"))


def save_failing_plans(report: ChaosReport, directory: str) -> list[str]:
    """Write each failing case's fault plan as a replayable JSON artifact."""
    paths = []
    os.makedirs(directory, exist_ok=True)
    for c in report.failures:
        path = os.path.join(
            directory, f"failing-plan-{c['strategy']}-seed{c['seed']}.json"
        )
        FaultPlan.from_dict(c["plan"]).save(path)
        paths.append(path)
    return paths
