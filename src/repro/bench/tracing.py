"""Traced benchmark runs for the ``repro trace`` CLI subcommand.

Each *trace target* builds a span-traced session shaped like one of the
paper's experiments and pushes a small mixed workload through it — a
latency-regime ping-pong (eager/PIO traffic) followed by a bulk transfer
(rendezvous/DMA) — so the exported timeline shows both phases on every
relevant rail.  The returned session is finished and ready for
:func:`repro.obs.export.write_chrome_trace` /
:func:`repro.obs.critical_path.lifecycle_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.sampling import sample_rails
from ..core.session import Session
from ..faults.plan import FaultEvent, FaultPlan
from ..hardware.presets import paper_platform, single_rail_platform
from ..hardware.spec import PlatformSpec
from ..util.errors import BenchError
from ..util.units import KB, MB
from .pingpong import run_pingpong

__all__ = ["TraceTarget", "TRACE_TARGETS", "resolve_trace_target", "run_traced"]


@dataclass(frozen=True)
class TraceTarget:
    """One named traced-run configuration."""

    name: str
    description: str
    #: ``build(platform)``: the traced session, on the paper platform
    #: when ``platform`` is ``None``.
    build: Callable[[Optional[PlatformSpec]], Session]
    #: (total_bytes, segments, reps) ping-pong rounds pushed through the
    #: session; mixing an eager-sized and a rendezvous-sized round puts
    #: both PIO and DMA spans on the timeline.
    workload: tuple[tuple[int, int, int], ...] = ((256, 2, 2), (4 * MB, 2, 1))


def _two_rail(strategy: str):
    def build(plat: Optional[PlatformSpec]) -> Session:
        return Session(plat or paper_platform(), strategy=strategy, trace=True)

    return build


def _split_balance(plat: Optional[PlatformSpec]) -> Session:
    plat = plat or paper_platform()
    return Session(plat, strategy="split_balance", samples=sample_rails(plat), trace=True)


def _failover(plat: Optional[PlatformSpec]) -> Session:
    plat = plat or paper_platform()
    # all faults land inside the single bulk ping-pong round (the traced
    # workload runs each round to idle, so the schedule must overlap the
    # first round's traffic): a transient send error eats the opening
    # handshake wrapper, then each rail is cut once mid-DMA — the lost
    # chunks retry on the surviving rail.  Outages never overlap.
    plan = FaultPlan(
        [
            FaultEvent("drop", 1.0, plat.rails[1].name, count=1),
            FaultEvent("down", 60.0, plat.rails[1].name, duration_us=400.0),
            FaultEvent("down", 4000.0, plat.rails[0].name, duration_us=500.0),
        ]
    )
    return Session(plat, strategy="aggreg_multirail", trace=True, faults=plan)


def _single_rail(rail_index: int):
    def build(plat: Optional[PlatformSpec]) -> Session:
        plat = plat or paper_platform()
        return Session(
            single_rail_platform(plat.rails[rail_index]), strategy="aggreg", trace=True
        )

    return build


TRACE_TARGETS: dict[str, TraceTarget] = {
    t.name: t
    for t in (
        TraceTarget(
            "fig2",
            "single-rail Myri-10G with aggregation (Figs 2a/2b)",
            _single_rail(0),
        ),
        TraceTarget(
            "fig3",
            "single-rail Quadrics with aggregation (Figs 3a/3b)",
            _single_rail(1),
        ),
        TraceTarget(
            "fig4",
            "greedy balancing over both rails, 2-segment (Figs 4a/4b)",
            _two_rail("greedy"),
        ),
        TraceTarget(
            "fig5",
            "greedy balancing over both rails, 4-segment (Figs 5a/5b)",
            _two_rail("greedy"),
            workload=((512, 4, 2), (8 * MB, 4, 1)),
        ),
        TraceTarget(
            "fig6",
            "aggregation on fastest NIC + balanced large (Fig 6) — shows"
            " the idle-rail poll tax",
            _two_rail("aggreg_multirail"),
        ),
        TraceTarget(
            "fig7",
            "adaptive packet stripping over both rails (Fig 7)",
            _split_balance,
            workload=((256, 2, 2), (8 * MB, 1, 1)),
        ),
        TraceTarget(
            "failover",
            "rail outages mid ping-pong: eager and DMA traffic failing"
            " over to the surviving rail (fault.retries > 0)",
            _failover,
            workload=((4 * MB, 2, 2),),
        ),
        TraceTarget(
            "pingpong",
            "plain 2-rail greedy ping-pong, mixed sizes",
            _two_rail("greedy"),
            workload=((64, 1, 3), (64 * KB, 2, 2), (2 * MB, 2, 1)),
        ),
    )
}


def resolve_trace_target(name: str) -> TraceTarget:
    """Map a user-supplied id (``fig6``, ``bench_fig6_aggreg_multirail``,
    ``fig4a`` ...) onto a trace target."""
    key = name.strip().lower().removeprefix("bench_").removesuffix(".py")
    if key in TRACE_TARGETS:
        return TRACE_TARGETS[key]
    # prefix matches: "fig6_aggreg_multirail" -> fig6, "fig4a"/"fig4b" -> fig4
    for target_name in sorted(TRACE_TARGETS, key=len, reverse=True):
        if key.startswith(target_name):
            return TRACE_TARGETS[target_name]
    raise BenchError(
        f"unknown trace target {name!r}; available: {sorted(TRACE_TARGETS)}"
    )


def run_traced(name: str, platform: Optional[PlatformSpec] = None) -> Session:
    """Build the target's traced session, run its workload, return it."""
    target = resolve_trace_target(name)
    session = target.build(platform)
    for size, segments, reps in target.workload:
        run_pingpong(session, size, segments=segments, reps=reps, warmup=1)
    return session
