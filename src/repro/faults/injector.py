"""Fault injector: executes a :class:`~repro.faults.plan.FaultPlan`
against a live session's simulation clock.

Failure model (DESIGN.md §6c "Fault injection & failover")
----------------------------------------------------------
The injector keeps two views of every rail:

* **physical** state — what the wire actually does.  Applied exactly at
  the plan's timestamps: a ``down`` rail loses every eager packet and DMA
  chunk that is in flight or is sent while the outage lasts; a
  ``degrade`` is put on the rail's :class:`~repro.hardware.wire.Fabric`,
  which scales the NIC links that exist (later ones are born scaled) and
  every one-way latency, eager and bulk alike.
* **detected** state — what the drivers' up/degraded/down health state
  machine believes, trailing every physical transition by the plan's
  ``detect_us``.  The engine only reacts to *detected* state: the window
  between failure and detection is exactly where traffic is silently
  lost, like a real NIC whose completion queue goes quiet before the
  watchdog fires.

One wire, one handle, O(active)
-------------------------------
The injector moves no byte.  A faulted run sends every eager wrapper
through :meth:`Fabric.transmit <repro.hardware.wire.Fabric.transmit>`
and every DMA chunk through ``FlowNetwork.start_flow`` in
:meth:`Driver.start_dma <repro.drivers.base.Driver.start_dma>`, exactly
like a fault-free one: route, latency, destination NIC and link
capacities are the wire's.  What the injector adds is the *verdict* on a
packet — when it leaves (:meth:`FaultInjector.eager_leaves`,
:meth:`FaultInjector.chunk_leaves`: drop budget, dead rail) and when it
lands (:meth:`FaultInjector.eager_lands`, :class:`_ChunkInFlight`: died
in flight, duplicate) — plus its counters, spans and the delayed loss
notice to the sender.  It keeps no second book of what is in flight: a
cut rail asks the flow network for the flows still draining.

``Session.faults`` is the only handle.  The session makes the injector
before its first engine; an engine reads the handle when it is built and
gives it to its drivers together with each rail's *currently detected*
health, so a node first touched during an outage starts with that rail
unusable.  Nothing here walks the nodes: detection wakes the engines
that exist, a degrade touches the links that exist, and a plan that
never fires costs its own events and nothing else — at 2 nodes or 1024.

Loss is tracked with ground truth: the simulation knows precisely which
wrappers and chunks died, so the recovery path retransmits *only*
genuinely lost data.  This models a driver-level completion/timeout
mechanism without simulating acknowledgement traffic; the detection delay
stands in for the timeout.  Lost eager wrappers are re-queued on the
owning engine (:meth:`~repro.core.scheduler.NodeEngine.on_wrapper_lost`)
and re-emitted on any usable rail; lost DMA chunks are retried by the
rendezvous manager with exponential backoff
(:meth:`~repro.core.rendezvous.RdvManager.on_chunk_lost`).

A detected ``degrade`` transition (start or end) re-triggers init-time
sampling on the *effective* platform spec, replacing
``session.samples`` so adaptive strategies re-derive their stripping
ratios from the degraded bandwidth (the Fig 7 loop, closed at runtime).

The injector is only constructed for a non-empty plan; with no plan the
whole subsystem is one ``is None`` test per eager post and per DMA
launch and simulated results are bit-identical to a fault-free build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..core.sampling import sample_rails
from ..obs.spans import TRACK_FAULTS
from ..util.errors import ConfigError
from ..util.units import KB, MB
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..core.packet import DmaChunk, PacketWrapper
    from ..core.session import Session
    from ..hardware.nic import NIC
    from ..hardware.spec import PlatformSpec
    from ..sim.flows import Flow

__all__ = ["FaultInjector", "RailFaultState", "TRACK_FAULTS"]

#: sizes used when a detected degradation re-triggers sampling.  Two
#: points give an exact linear fit and keep the re-sample cheap enough to
#: run inside chaos sweeps.
RESAMPLE_SIZES = (64 * KB, 1 * MB)


class RailFaultState:
    """Physical + detected fault state of one rail."""

    __slots__ = (
        "index",
        "name",
        "down",
        "detected",
        "degrades",
        "drop_budget",
        "dup_budget",
        "down_since",
    )

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name
        #: physical: True while the wire is cut.
        self.down = False
        #: what the drivers currently believe: "up" | "degraded" | "down".
        self.detected = "up"
        #: active degradations as (bw_factor, lat_factor) pairs; effects
        #: compose multiplicatively so overlapping events nest cleanly.
        self.degrades: list[tuple[float, float]] = []
        self.drop_budget = 0
        self.dup_budget = 0
        self.down_since: Optional[float] = None

    @property
    def bw_factor(self) -> float:
        f = 1.0
        for bw, _lat in self.degrades:
            f *= bw
        return f

    @property
    def lat_factor(self) -> float:
        f = 1.0
        for _bw, lat in self.degrades:
            f *= lat
        return f

    @property
    def physical_health(self) -> str:
        if self.down:
            return "down"
        return "degraded" if self.degrades else "up"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RailFaultState {self.name} phys={self.physical_health} det={self.detected}>"


class _ChunkInFlight:
    """The ``on_complete`` of a DMA flow launched under a fault plan: the
    verdict at the far end, and — while the flow drains — what
    :meth:`FaultInjector._apply_down` needs to lose it mid-transfer."""

    __slots__ = ("injector", "rail", "dst_nic", "chunk", "on_lost")

    def __init__(self, injector, rail, dst_nic, chunk, on_lost):
        self.injector = injector
        self.rail = rail
        self.dst_nic = dst_nic
        self.chunk = chunk
        self.on_lost = on_lost

    def __call__(self, _flow: "Flow") -> None:
        rail, inj = self.rail, self.injector
        if rail.down:
            # lost in the propagation window after the sender drained it
            inj._chunk_lost(rail, self.on_lost, engine_reserved=False)
            return
        if rail.dup_budget > 0:
            rail.dup_budget -= 1
            inj._m_dup[rail.index].add()
            inj.sim.schedule(0.0, self.dst_nic.deliver, self.chunk)
        self.dst_nic.deliver(self.chunk)


class FaultInjector:
    """Schedules a plan's faults and owns the loss/recovery bookkeeping."""

    def __init__(self, session: "Session", plan: FaultPlan):
        if plan.empty:
            raise ConfigError("FaultInjector needs a non-empty plan")
        self.session = session
        self.sim = session.sim
        self.plan = plan
        self.detect_us = plan.detect_us
        spec = session.spec
        plan.validate(spec)
        self._rails = [RailFaultState(i, r.name) for i, r in enumerate(spec.rails)]
        self._by_name = {st.name: st for st in self._rails}
        # fault.* instruments (registered only when faults are active)
        metrics = session.metrics
        self._m_events = metrics.counter("fault.events")
        self._m_lost_eager = [
            metrics.counter("fault.lost.eager", rail=st.name) for st in self._rails
        ]
        self._m_lost_chunks = [
            metrics.counter("fault.lost.chunks", rail=st.name) for st in self._rails
        ]
        self._m_dup = [
            metrics.counter("fault.dup_injected", rail=st.name) for st in self._rails
        ]
        self._m_state = [
            metrics.gauge("fault.rail_state", rail=st.name) for st in self._rails
        ]
        self._m_downtime = [
            metrics.counter("fault.downtime_us", rail=st.name) for st in self._rails
        ]
        self._m_resamples = metrics.counter("fault.resamples")
        # schedule the plan (flaps expanded into their down cycles)
        for event in plan.normalized():
            rail = self._by_name[event.rail]
            if event.kind == "down":
                assert event.duration_us is not None
                self.sim.at(event.at_us, self._apply_down, rail)
                self.sim.at(event.at_us + event.duration_us, self._apply_up, rail)
            elif event.kind == "degrade":
                assert event.duration_us is not None and event.factor is not None
                entry = (event.factor, event.lat_factor or 1.0)
                self.sim.at(event.at_us, self._apply_degrade, rail, entry)
                self.sim.at(
                    event.at_us + event.duration_us, self._clear_degrade, rail, entry
                )
            elif event.kind == "drop":
                assert event.count is not None
                self.sim.at(event.at_us, self._apply_budget, rail, "drop_budget", event.count)
            elif event.kind == "dup":
                assert event.count is not None
                self.sim.at(event.at_us, self._apply_budget, rail, "dup_budget", event.count)
            else:  # pragma: no cover - normalized() leaves no flaps
                raise ConfigError(f"unexpected fault kind {event.kind!r}")

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #
    def is_down(self, rail_index: int) -> bool:
        """Physical outage state of one rail."""
        return self._rails[rail_index].down

    def detected_health(self, rail_index: int) -> str:
        """What a driver of this rail believes — an engine built mid-run
        starts its drivers from here, not from "up"."""
        return self._rails[rail_index].detected

    # ------------------------------------------------------------------ #
    # plan execution
    # ------------------------------------------------------------------ #
    def _apply_down(self, rail: RailFaultState) -> None:
        if rail.down:  # overlapping downs collapse into one outage
            return
        self._m_events.add()
        rail.down = True
        rail.down_since = self.sim.now
        self._span(rail, "down")
        # every DMA chunk still draining on this rail is lost mid-transfer
        # (the flow network knows which: their landing is ours), oldest first
        flownet = self.session.platform.flownet
        for flow in sorted(flownet.active_flows, key=lambda f: f.fid):
            chunk = flow.on_complete
            if isinstance(chunk, _ChunkInFlight) and chunk.rail is rail:
                flownet.cancel_flow(flow)
                # the sender's DMA engine is still reserved (never drained)
                self._chunk_lost(rail, chunk.on_lost, engine_reserved=True)
        self.sim.schedule(self.detect_us, self._detect, rail)

    def _apply_up(self, rail: RailFaultState) -> None:
        if not rail.down:
            return
        rail.down = False
        if rail.down_since is not None:
            self._m_downtime[rail.index].add(self.sim.now - rail.down_since)
            rail.down_since = None
        self.sim.schedule(self.detect_us, self._detect, rail)

    def _apply_degrade(self, rail: RailFaultState, entry: tuple[float, float]) -> None:
        self._m_events.add()
        rail.degrades.append(entry)
        self._rescale_links(rail)
        self._span(rail, "degrade")
        self.sim.schedule(self.detect_us, self._detect, rail)

    def _clear_degrade(self, rail: RailFaultState, entry: tuple[float, float]) -> None:
        try:
            rail.degrades.remove(entry)
        except ValueError:  # pragma: no cover - defensive
            return
        self._rescale_links(rail)
        self.sim.schedule(self.detect_us, self._detect, rail)

    def _apply_budget(self, rail: RailFaultState, attr: str, count: int) -> None:
        self._m_events.add()
        setattr(rail, attr, getattr(rail, attr) + count)

    def _rescale_links(self, rail: RailFaultState) -> None:
        """Put the rail's effective bandwidth and latency on its fabric."""
        platform = self.session.platform
        platform.fabric(rail.index).degrade(rail.bw_factor, rail.lat_factor)
        platform.flownet.refresh()

    # ------------------------------------------------------------------ #
    # detection: the drivers' health state machine
    # ------------------------------------------------------------------ #
    def _detect(self, rail: RailFaultState) -> None:
        """A scheduled health probe: sync detected state to physical."""
        health = rail.physical_health
        if health == rail.detected:
            return
        was = rail.detected
        rail.detected = health
        self._m_state[rail.index].set({"up": 0, "degraded": 1, "down": 2}[health])
        for engine in self.session.engines.built():
            engine.drivers[rail.index].health = health
            # every health transition is a scheduling opportunity: a
            # recovered rail can take parked traffic, a dead one must be
            # routed around right now.
            engine.host.wake()
        # entering or leaving degradation re-triggers init-time sampling
        if "degraded" in (health, was):
            self._resample()

    def effective_spec(self) -> "PlatformSpec":
        """The platform spec as currently *detected* (degrade-scaled)."""
        spec = self.session.spec
        rails = []
        for st, rail_spec in zip(self._rails, spec.rails):
            if st.detected == "degraded":
                rails.append(
                    rail_spec.replace(
                        bw_MBps=rail_spec.bw_MBps * st.bw_factor,
                        lat_us=rail_spec.lat_us * st.lat_factor,
                    )
                )
            else:
                rails.append(rail_spec)
        return spec.with_rails(rails)

    def _resample(self) -> None:
        """Re-run init-time sampling on the detected effective spec."""
        session = self.session
        if session.samples is None:
            return  # nothing consumes ratios; skip the work
        session.samples = sample_rails(
            self.effective_spec(), sizes=RESAMPLE_SIZES, reps=1, warmup=1
        )
        self._m_resamples.add()
        from ..obs.log import get_logger

        log = get_logger()
        if log.enabled_for("debug"):
            log.debug("fault.resample", t_us=self.sim.now)

    # ------------------------------------------------------------------ #
    # eager (PIO) path: the verdicts on a wrapper the one wire carries
    # ------------------------------------------------------------------ #
    def eager_leaves(self, pw: "PacketWrapper", send_done_delay: float):
        """Verdict at the post: :meth:`eager_lands` for the fabric to call
        at the far end, or None when the wrapper never leaves."""
        rail = self._rails[pw.rail_index]
        if rail.drop_budget > 0:
            # transient send error: the driver reports the failed
            # completion as soon as the post finishes.
            rail.drop_budget -= 1
            self._eager_lost(rail, pw, "drop", send_done_delay)
        elif rail.down:
            # sent into a dead wire; noticed one detection delay later.
            self._eager_lost(rail, pw, "dead_rail", send_done_delay + self.detect_us)
        else:
            return self.eager_lands
        return None

    def eager_lands(self, dst_nic: "NIC", pw: "PacketWrapper") -> None:
        """Verdict at the far end: delivered unless the rail died meanwhile."""
        rail = self._rails[pw.rail_index]
        if rail.down:
            self._eager_lost(rail, pw, "in_flight", self.detect_us)
        else:
            dst_nic.deliver(pw)

    def _eager_lost(
        self, rail: RailFaultState, pw: "PacketWrapper", why: str, notice_us: float
    ) -> None:
        """Count and mark one lost wrapper; its sender hears ``notice_us`` on."""
        self._m_lost_eager[rail.index].add()
        self._loss_span(rail, pw, why)
        sender = self.session.engines[pw.src_node]
        self.sim.schedule(notice_us, sender.on_wrapper_lost, pw, pw.rail_index)

    # ------------------------------------------------------------------ #
    # bulk (DMA) path: the verdicts on a chunk the one flow carries
    # ------------------------------------------------------------------ #
    def chunk_leaves(
        self, rail_index: int, dst_nic: "NIC", chunk: "DmaChunk",
        on_lost: Callable[[bool], None],
    ) -> Optional["_ChunkInFlight"]:
        """Verdict at the launch: the flow's ``on_complete``, or None when
        the chunk was posted into a dead NIC during the detection window —
        it never leaves and the DMA engine stays claimed until the
        recovery path releases it."""
        rail = self._rails[rail_index]
        if rail.down:
            self._chunk_lost(rail, on_lost, engine_reserved=True)
            return None
        return _ChunkInFlight(self, rail, dst_nic, chunk, on_lost)

    def _chunk_lost(
        self, rail: RailFaultState, on_lost: Callable[[bool], None], engine_reserved: bool
    ) -> None:
        """Account one lost DMA chunk and notify the sender after the
        detection delay.  ``engine_reserved`` says whether the sending
        NIC's DMA engine is still held by the dead transfer (lost before
        drain) and must be released by the recovery path."""
        self._m_lost_chunks[rail.index].add()
        self.sim.schedule(self.detect_us, on_lost, engine_reserved)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _span(self, rail: RailFaultState, kind: str) -> None:
        spans = self.session.spans
        if spans.enabled:
            spans.instant(
                0, TRACK_FAULTS, f"{kind}:{rail.name}", "fault", self.sim.now,
                {"rail": rail.name, "kind": kind},
            )
        from ..obs.log import get_logger

        log = get_logger()
        if log.enabled_for("debug"):
            log.debug("fault.inject", kind=kind, rail=rail.name, t_us=self.sim.now)

    def _loss_span(self, rail: RailFaultState, pw: "PacketWrapper", why: str) -> None:
        """Ground-truth loss marker (the physical event; the *detected*
        ``eager_lost`` instant on the engine trails it by ``detect_us``)."""
        spans = self.session.spans
        if spans.enabled:
            spans.instant(
                pw.src_node, TRACK_FAULTS, "eager_drop", "fault", self.sim.now,
                {
                    "rail": rail.name,
                    "why": why,
                    "dst": pw.dst_node,
                    **pw.identity_args(),
                },
            )
        from ..obs.log import get_logger

        log = get_logger()
        if log.enabled_for("debug"):
            log.debug(
                "fault.loss", rail=rail.name, why=why, node=pw.src_node,
                dst=pw.dst_node, t_us=self.sim.now,
            )

    def health_report(self) -> dict[str, str]:
        """Detected health of every rail (for CLI display)."""
        return {st.name: st.detected for st in self._rails}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FaultInjector events={len(self.plan)} detect_us={self.detect_us}>"
