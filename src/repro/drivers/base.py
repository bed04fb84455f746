"""Driver abstraction — NewMadeleine's transmit layer.

A driver interfaces the engine with one NIC and hides the network API
behind three operations, mirroring the paper's Figure 1 (PIO/RDV/put-get
tracks):

* :meth:`poll` — progress the NIC; returns its per-sweep CPU cost and any
  arrived packets.  The pump polls *every* rail's driver on every
  sweep — the cost of polling a rail you are not even using is the
  multi-rail penalty of Fig 6.
* :meth:`post_eager` — emit a packet wrapper via programmed I/O.  The
  returned CPU cost (request post + the PIO copy itself) is charged to the
  calling pump, which is how PIO "monopolizes the CPU".
* :meth:`start_dma` — launch a rendezvous chunk as a bandwidth-sharing
  flow across the I/O bus and NIC links.  Costs only the descriptor post
  plus DMA setup; the transfer itself overlaps with everything.

There is one wire of each kind, for faulted and fault-free runs alike:
:meth:`post_eager` hands every wrapper to
:meth:`Fabric.transmit <repro.hardware.wire.Fabric.transmit>` and
:meth:`start_dma` starts every chunk with ``FlowNetwork.start_flow`` —
route, latency (rail, switch hops, the rail's current degradation) and
destination NIC are decided there.  A fault injector (``Driver.faults``,
the session's one handle, given by the engine that builds the driver
along with the rail's detected ``health``) adds only its verdict on the
packet when it leaves and when it lands; without one that is a single
``is None`` test per post and per launch.

One class serves every network API of the paper's §2 (Elan, GM-2, MX,
SiSCI, TCP): which one a rail speaks is its ``RailSpec.driver``, checked
against :data:`~repro.hardware.spec.DRIVER_APIS` where the platform is
read, and what the strategies observe of it — latency, bandwidth, PIO
threshold, poll and post costs — are the rail's other spec fields.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..core.packet import DmaChunk, PacketWrapper, Payload
from ..obs.spans import rail_track
from ..util.errors import DriverError

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.nic import NIC
    from ..hardware.platform import Platform
    from ..hardware.spec import RailSpec

__all__ = ["Driver"]

#: what a poll of an empty receive queue returns (shared, hence immutable).
_NO_PACKETS: Sequence[Any] = ()


class Driver:
    """The transmit-layer driver bound to one NIC of one node."""

    def __init__(self, platform: "Platform", rail_index: int, node_id: int):
        self.platform = platform
        self.rail_index = rail_index
        self.node_id = node_id
        self.spec: "RailSpec" = platform.spec.rails[rail_index]
        self.nic: "NIC" = platform.nic(rail_index, node_id)
        self.fabric = platform.fabric(rail_index)
        self.sim = platform.sim
        # statistics
        self.polls = 0
        self.eager_posted = 0
        self.eager_bytes = 0
        self.dma_started = 0
        self.dma_bytes = 0
        #: set by the owning engine; PIO/DMA activity becomes spans on
        #: this rail's track (see repro.obs.spans).
        self.spans = None
        #: completion-observation sink (the node's strategy when it sets
        #: ``wants_observations``, else None — static strategies pay one
        #: ``is None`` check per DMA drain and nothing more).
        self.observer = None
        #: the session's fault injector (``Session.faults``), given by the
        #: owning engine when it builds this driver; None when no faults
        #: are scheduled — one ``is None`` test per post and per launch.
        self.faults = None
        #: *detected* health of this rail: "up" | "degraded" | "down".
        #: Starts at what the injector has detected when the driver is
        #: built, then follows its detection events, which trail the
        #: physical state by the plan's detection delay.
        self.health = "up"

    # ------------------------------------------------------------------ #
    # capabilities
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def latency_us(self) -> float:
        """One-way fabric latency (strategy ordering key: "fastest" rail)."""
        return self.spec.lat_us

    @property
    def bandwidth_MBps(self) -> float:
        return self.spec.bw_MBps

    @property
    def max_eager_bytes(self) -> int:
        """Largest wrapper this driver sends via PIO (incl. headers)."""
        return self.spec.eager_threshold

    @property
    def max_eager_payload(self) -> int:
        """Largest segment payload one eager packet can carry."""
        return self.spec.eager_threshold - self.spec.header_bytes

    def eager_eligible(self, nbytes: int) -> bool:
        """Can a segment of ``nbytes`` payload ride an eager packet?"""
        return nbytes + self.spec.header_bytes <= self.spec.eager_threshold

    @property
    def dma_idle(self) -> bool:
        return not self.nic.dma_busy

    @property
    def usable(self) -> bool:
        """False once the rail's outage has been *detected*.

        The engine stops consulting the strategy for an unusable rail and
        failover routes around it; traffic already committed during the
        detection window is recovered by retransmission instead.
        """
        return self.health != "down"

    # ------------------------------------------------------------------ #
    # progress
    # ------------------------------------------------------------------ #
    def poll(self) -> tuple[float, Sequence[Any]]:
        """One progress poll: ``(cpu_cost_us, arrived_packets)``.

        The pump enters it only for a non-empty receive queue: four
        polls in five find nothing, and for those the pump does what this
        method would do — count the poll, charge its cost — itself.
        """
        self.polls += 1
        nic = self.nic
        if nic.rx_queue:
            return self.spec.poll_cost_us, nic.drain_rx()
        return self.spec.poll_cost_us, _NO_PACKETS

    # ------------------------------------------------------------------ #
    # eager (PIO) path
    # ------------------------------------------------------------------ #
    def new_wrapper(self, dst_node: int) -> PacketWrapper:
        """An empty wrapper for ``dst_node`` on this rail, carrying the
        rail's framing sizes so it can tally its own wire size."""
        spec = self.spec
        return PacketWrapper(
            self.node_id, dst_node, self.rail_index, spec.header_bytes, spec.ctrl_bytes
        )

    def eager_cost_parts(self, pw: PacketWrapper) -> tuple[float, float]:
        """``(post_cost, copy_cost)`` of emitting ``pw`` eagerly.

        The descriptor post always runs on the pump; the PIO copy runs on
        the pump too unless a parallel-PIO worker takes it (§4 future
        work, see :meth:`repro.hardware.host.Host.try_claim_pio_worker`).
        """
        return self.spec.post_cost_us, pw.wire_bytes / self.spec.pio_MBps

    def post_eager(self, pw: PacketWrapper, copy_offloaded: bool = False) -> float:
        """Emit ``pw``; returns the CPU cost the pump must charge.

        With ``copy_offloaded`` the PIO copy runs on a worker thread and
        only the descriptor post is charged to the pump; the caller is
        responsible for having claimed the worker and for completing the
        embedded send requests at copy end.  Either way the packet
        reaches the destination NIC one fabric latency after the copy
        completes, and the NIC's eager TX path is busy until then.
        """
        size = pw.wire_bytes
        if size > self.spec.eager_threshold:
            raise DriverError(
                f"{self.name}: eager packet of {size}B exceeds threshold"
                f" {self.spec.eager_threshold}"
            )
        if pw.rail_index != self.rail_index:
            raise DriverError(
                f"{self.name}: wrapper bound to rail {pw.rail_index},"
                f" not {self.rail_index}"
            )
        now = self.sim.now
        if self.nic.tx_busy_until > now:
            raise DriverError(f"{self.name}: eager TX path busy")
        post, copy = self.eager_cost_parts(pw)
        self.eager_posted += 1
        self.eager_bytes += size
        self.nic.tx_busy_until = now + post + copy
        # one wire.  An injector's verdict at the post is the guard the
        # fabric calls at the far end, or None: lost here, nothing to carry
        faults = self.faults
        lands = None
        if faults is None or (lands := faults.eager_leaves(pw, post + copy)):
            self.fabric.transmit(self.node_id, pw.dst_node, pw, post + copy, lands)
        if self.spans is not None and self.spans.enabled:
            self.spans.add(
                self.node_id,
                rail_track(self.name),
                "pio",
                "pio",
                now,
                now + post + copy,
                {
                    "rail": self.name,
                    "bytes": size,
                    "entries": len(pw.entries),
                    "dst": pw.dst_node,
                    "offloaded": copy_offloaded,
                    **pw.identity_args(),
                },
            )
        return post if copy_offloaded else post + copy

    # ------------------------------------------------------------------ #
    # bulk (DMA) path
    # ------------------------------------------------------------------ #
    def start_dma(
        self,
        dst_node: int,
        req_id: int,
        offset: int,
        payload: Payload,
        delay: float,
        on_drain: Optional[Callable[[DmaChunk], None]] = None,
        on_lost: Optional[Callable[[bool], None]] = None,
    ) -> float:
        """Launch one rendezvous chunk as a flow.

        ``delay`` postpones the start (CPU costs of chunks posted earlier in
        the same handler).  Returns this chunk's own CPU post cost.  On
        completion the data lands at the destination NIC as a
        :class:`~repro.core.packet.DmaChunk` — the one record of this chunk,
        whose own methods launch, drain and land it.

        ``on_drain(chunk)`` fires when the last byte has left this NIC.
        ``on_lost(engine_reserved)`` — required when a fault injector is
        active — fires (after the detection delay) if the chunk dies: the
        launch hit a dead NIC, the rail was cut mid-transfer, or the data
        was lost in the propagation window after draining.  The flag says
        whether this NIC's DMA engine is still held by the dead transfer.
        """
        size = payload.size
        if size <= 0:
            raise DriverError(f"{self.name}: empty DMA chunk")
        spec = self.spec
        cost = spec.post_cost_us + spec.rdv_setup_us  # registration + descriptor
        platform = self.platform
        rail_index = self.rail_index
        chunk = DmaChunk(req_id, self.node_id, offset, payload)
        # what the chunk's own methods need while it is in flight
        chunk.driver = self
        chunk.dst_node = dst_node
        chunk.dst_nic = platform.nic(rail_index, dst_node)
        chunk.path = platform.dma_path(rail_index, self.node_id, dst_node)
        chunk.on_drain = on_drain
        chunk.on_lost = on_lost
        self.dma_started += 1
        self.dma_bytes += size
        self.sim.schedule(delay + cost, chunk.launch)
        return cost

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name} node={self.node_id}>"
