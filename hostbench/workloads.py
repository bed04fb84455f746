"""The four workloads: closed-loop, fault-free, seeded, self-checking.

Each workload is ``prepare(seed, scale) -> ctx`` (inputs drawn from the
seed; the program under test only ever sees the generated inputs) plus
``run_pass(ctx, observe) -> PassResult`` (one fresh-session pass that
verifies its own outputs).  Everything here goes through the public
functions of ``repro``; no name the tracer wraps is needed to run a pass.

``scale`` shrinks a workload for smoke tests (1.0 is the benchmark size).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.bench import experiments, figures, pingpong, sweep
from repro.core.sampling import sample_rails
from repro.core.session import Session
from repro.hardware.presets import paper_platform
from repro.hardware.topology import rail_optimized_platform
from repro.mpi import collectives
from repro.mpi.comm import Communicator

__all__ = ["PassResult", "Workload", "WORKLOADS"]

#: called with every session a pass has finished running (traced passes
#: read the per-layer counts off it; timed passes pass None).
Observer = Optional[Callable[[Session], None]]

FLOOD_TAG = 11


@dataclass
class PassResult:
    """What one pass did: operations, failures, simulated outcome."""

    attempted: int
    failed: int
    #: simulated microseconds of the pass (summed over its sessions).
    sim_us: float
    #: kernel events the pass executed (summed over its sessions).
    events: int
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    #: what one operation is (the unit of ``ops_per_s``).
    op: str
    why: str
    prepare: Callable[[int, float], Any]
    #: the first session a pass would build (constructed once during set-up).
    first_session: Callable[[Any], Session]
    run_pass: Callable[[Any, Observer], PassResult]


# --------------------------------------------------------------------- #
# figures — Figs 2-7 point by point, then the paper's claims
# --------------------------------------------------------------------- #
#: cheapest first, so a scaled-down smoke run still covers whole figures
#: (claims are evaluated per figure and need every point of it).
_FIGURE_ORDER = (
    "fig6", "fig4a", "fig5a", "fig2a", "fig3a",
    "fig4b", "fig5b", "fig7", "fig2b", "fig3b",
)
_FIG_REPS, _FIG_WARMUP = 3, 1


@dataclass
class _FiguresCtx:
    plans: list
    ops: int


def _figure_points(plan):
    return [
        (curve, size)
        for curve in plan.curves
        for size in plan.sizes
        if size >= curve.segments
    ]


def _prepare_figures(seed: int, scale: float) -> _FiguresCtx:
    # the sweep is the paper's, not ours to draw: the seed changes nothing
    table = sample_rails(paper_platform())
    n_figs = max(1, min(len(_FIGURE_ORDER), math.ceil(len(_FIGURE_ORDER) * scale)))
    plans = [
        figures.figure_plan(fid, samples=table if fid == "fig7" else None)
        for fid in _FIGURE_ORDER[:n_figs]
    ]
    return _FiguresCtx(plans, sum(len(_figure_points(p)) for p in plans))


def _first_figures_session(ctx: _FiguresCtx) -> Session:
    return ctx.plans[0].curves[0].session_factory()


def _run_figures(ctx: _FiguresCtx, observe: Observer) -> PassResult:
    out = PassResult(attempted=ctx.ops, failed=0, sim_us=0.0, events=0)
    for plan in ctx.plans:
        result = sweep.SweepResult(
            sizes=list(plan.sizes), curves=[c.label for c in plan.curves]
        )
        result.results = {c.label: {} for c in plan.curves}
        failed_points = 0
        for curve, size in _figure_points(plan):
            try:
                session = curve.session_factory()
                point = pingpong.run_pingpong(
                    session, size, segments=curve.segments,
                    reps=_FIG_REPS, warmup=_FIG_WARMUP,
                )
            except Exception as exc:  # a dead point must not stop the sweep
                failed_points += 1
                out.notes.append(f"{plan.figure_id} {curve.label} @{size}: {exc!r}")
                continue
            result.results[curve.label][size] = point
            out.sim_us += session.sim.now
            out.events += session.sim.events_executed
            if observe is not None:
                observe(session)
        n_points = len(_figure_points(plan))
        if failed_points == 0:
            # accuracy against the paper: a missed claim fails its whole figure
            fig = figures.FigureResult(
                plan.figure_id, plan.title, plan.metric, result,
                sweep.sweep_table(result, plan.metric, title=plan.title),
            )
            for claim in experiments.PAPER_CLAIMS:
                if claim.figure_id != plan.figure_id:
                    continue
                measured, ok = claim.evaluate(fig)
                if not ok:
                    failed_points = n_points
                    out.notes.append(
                        f"{plan.figure_id} claim not met: {claim.statement}"
                        f" (paper {claim.paper_value}, measured {measured})"
                    )
        else:
            failed_points = n_points  # claims cannot be evaluated on a torn figure
        out.failed += failed_points
    return out


# --------------------------------------------------------------------- #
# floods — one 2-node session, a window of sends in flight
# --------------------------------------------------------------------- #
@dataclass
class _FloodCtx:
    strategy: str
    samples: Any
    sizes: list[int]
    window: int
    #: the repo's own span tracing (only the obs overhead probe turns it on).
    trace: bool = False

    @property
    def ops(self) -> int:
        return len(self.sizes)


def _prepare_flood(choices, count, window, strategy, sampled):
    def prepare(seed: int, scale: float) -> _FloodCtx:
        rng = random.Random(seed)
        n = max(window * 4, int(count * scale))
        sizes = rng.choices(choices, k=n)
        samples = sample_rails(paper_platform()) if sampled else None
        return _FloodCtx(strategy, samples, sizes, window)

    return prepare


def _flood_session(ctx: _FloodCtx) -> Session:
    return Session(
        paper_platform(), strategy=ctx.strategy, samples=ctx.samples, trace=ctx.trace
    )


def _run_flood(ctx: _FloodCtx, observe: Observer) -> PassResult:
    """Stream ``ctx.sizes`` from node 0 to node 1, ``window`` in flight.

    The generator is O(1) per message: it waits on the *oldest*
    outstanding send only, never on the whole window, so the host time
    measured is the stack's, not the load generator's.  (When sends
    complete out of order the window briefly runs below ``window``.)
    """
    session = _flood_session(ctx)
    a, b = session.interface(0), session.interface(1)
    recvs = [b.irecv(0, FLOOD_TAG) for _ in ctx.sizes]
    sends = []

    def sender():
        outstanding = deque()
        for size in ctx.sizes:
            while len(outstanding) >= ctx.window:
                oldest = outstanding.popleft()
                if not oldest.done:
                    yield oldest.completion
            req = a.isend(1, FLOOD_TAG, size)
            outstanding.append(req)
            sends.append(req)
        for req in outstanding:
            if not req.done:
                yield req.completion

    def drain():
        for req in recvs:
            if not req.done:
                yield req.completion

    procs = [
        session.spawn(sender(), name="hostbench.sender"),
        session.spawn(drain(), name="hostbench.drain"),
    ]
    session.run_until_idle()
    failed = 0
    for i, size in enumerate(ctx.sizes):
        recv = recvs[i]
        sent = i < len(sends) and sends[i].done
        if not (sent and recv.done and recv.payload is not None
                and recv.payload.size == size):
            failed += 1
    out = PassResult(ctx.ops, failed, session.sim.now, session.sim.events_executed)
    if failed:
        out.notes.append(f"{failed} messages undelivered or of wrong length")
    if not all(p.done for p in procs):
        out.notes.append(f"flood deadlocked at t={session.sim.now:.2f}us")
        out.failed = max(out.failed, 1)
    if observe is not None:
        observe(session)
    return out


# --------------------------------------------------------------------- #
# collectives — every rank of a rail-optimized cluster, one session
# --------------------------------------------------------------------- #
_ALLREDUCE_ROUNDS = 8
_VECTOR_LEN = 8
#: rank-collectives per rank per pass: the allreduces + two barriers.
_COLLECTIVES_PER_RANK = _ALLREDUCE_ROUNDS + 2


@dataclass
class _CollectivesCtx:
    n_nodes: int
    #: per round, the vector every rank offsets by its rank number.
    bases: list[list[int]]

    @property
    def ops(self) -> int:
        return self.n_nodes * _COLLECTIVES_PER_RANK


def _prepare_collectives(seed: int, scale: float) -> _CollectivesCtx:
    rng = random.Random(seed)
    bases = [
        [rng.randrange(1000) for _ in range(_VECTOR_LEN)]
        for _ in range(_ALLREDUCE_ROUNDS)
    ]
    return _CollectivesCtx(max(4, int(1024 * scale)), bases)


def _collectives_session(ctx: _CollectivesCtx) -> Session:
    return Session(rail_optimized_platform(ctx.n_nodes), strategy="aggreg_multirail")


def _run_collectives(ctx: _CollectivesCtx, observe: Observer) -> PassResult:
    session = _collectives_session(ctx)
    comm = Communicator(session, name="hostbench")
    n = ctx.n_nodes
    # integer-valued doubles: the sum is exact whatever the reduction order
    rank_sum = n * (n - 1) // 2
    expected = [[float(n * v + rank_sum) for v in base] for base in ctx.bases]
    completed = [0] * n
    wrong = [0] * n

    def rank_body(rank: int):
        ep = comm.endpoint(rank)
        for base, want in zip(ctx.bases, expected):
            # looked up on the module at call time so a traced pass sees
            # the tracer's wrappers
            got = yield from collectives.multilane_allreduce(
                ep, [float(v + rank) for v in base]
            )
            completed[rank] += 1
            if got != want:
                wrong[rank] += 1
        yield from collectives.multilane_barrier(ep)
        completed[rank] += 1
        yield from collectives.nic_barrier(ep)
        completed[rank] += 1

    procs = [
        session.spawn(rank_body(r), name=f"hostbench.rank{r}") for r in range(n)
    ]
    session.run_until_idle()
    done = sum(completed) - sum(wrong)
    out = PassResult(ctx.ops, ctx.ops - done, session.sim.now, session.sim.events_executed)
    if sum(wrong):
        out.notes.append(f"{sum(wrong)} allreduce results wrong")
    if not all(p.done for p in procs):
        stuck = sum(1 for p in procs if not p.done)
        out.notes.append(f"{stuck}/{n} ranks deadlocked at t={session.sim.now:.2f}us")
        out.failed = max(out.failed, 1)
    if observe is not None:
        observe(session)
    return out


KB = 1024

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "figures",
            "point",
            "Figs 2-7 as every user and CI job runs them: 434 fresh 2-node"
            " sessions per pass, mixed eager/rendezvous sizes, paper claims checked",
            _prepare_figures,
            _first_figures_session,
            _run_figures,
        ),
        Workload(
            "flood_eager",
            "message",
            "100k messages of 8 B-4 KB, window 32: smallest packets, where"
            " per-packet cost (submit, aggregation, PIO post, matching) sets the rate",
            _prepare_flood((8, 64, 512, 2048, 4096), 100_000, 32, "aggreg_multirail", False),
            _flood_session,
            _run_flood,
        ),
        Workload(
            "flood_rdv",
            "message",
            "10k messages of 64 KB-1 MB, window 8, split_balance: the same pump"
            " used the other way (DMA, rendezvous, reassembly, max-min flows)",
            _prepare_flood((64 * KB, 256 * KB, 1024 * KB), 10_000, 8, "split_balance", True),
            _flood_session,
            _run_flood,
        ),
        Workload(
            "collectives_p1024",
            "rank-collective",
            "1024 ranks, 8 multilane allreduces + 2 barriers each: lazy engine"
            " builds, thousands of processes, park/wake, routing, many-peer matching",
            _prepare_collectives,
            _collectives_session,
            _run_collectives,
        ),
    )
}
