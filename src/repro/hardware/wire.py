"""Per-rail fabric: latency-only wiring between the NICs of one rail.

Eager (PIO) packets are small; their wire occupancy is dominated by the
PIO copy already charged to the sending CPU, so the fabric delivers them
after the rail's one-way latency without a bandwidth term.  Bulk transfers
go through the flow network instead (see
:meth:`repro.drivers.base.Driver.start_dma`), which charges bandwidth on the
NIC links and host buses and adds the same latency as ``extra_latency``.

Both read that latency from :meth:`Fabric.latency_us` — rail latency, the
route's extra switch hops, then the rail's current degradation — and the
rail's NIC links take their capacity from the fabric too, so a degraded
rail is one :meth:`Fabric.degrade` call whatever the traffic and however
many nodes never used the rail.

Without a switch topology the fabric is a full crossbar: every node pair
is connected on every rail (the paper's platform is two nodes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..sim.engine import Simulator
from ..sim.flows import Link
from ..util.errors import PlatformError
from .nic import NIC
from .spec import RailSpec

if TYPE_CHECKING:  # pragma: no cover
    from .topology import TopologyPlan

__all__ = ["Fabric"]


class Fabric:
    """The switched network of one rail, connecting one NIC per node."""

    def __init__(
        self,
        sim: Simulator,
        rail: RailSpec,
        nics: Sequence[NIC],
        plan: "Optional[TopologyPlan]" = None,
    ):
        if len(nics) < 2:
            raise PlatformError(f"rail {rail.name}: need NICs on >= 2 nodes")
        self.sim = sim
        self.rail = rail
        self._nics = list(nics)
        #: switch-topology routing plan; None = the crossbar of the
        #: paper's testbed (zero extra hops between any pair).
        self.plan = plan
        #: physical degradation of the rail (1.0 unless a fault plan says
        #: otherwise): multiplies every one-way latency.
        self.lat_factor = 1.0
        #: capacity a NIC link of this rail has now, and the links made so
        #: far (NICs make theirs on first use, at this capacity).
        self.link_MBps = rail.bw_MBps
        self._links: list[Link] = []
        for nic in self._nics:
            nic.fabric = self

    def nic_of(self, node_id: int) -> NIC:
        try:
            return self._nics[node_id]
        except IndexError:
            raise PlatformError(
                f"rail {self.rail.name}: no NIC for node {node_id}"
            ) from None

    def latency_us(self, src_node: int, dst_node: int) -> float:
        """One-way latency between two nodes as the wire is now: the rail's
        ``lat_us``, the route's extra switch hops, times the degradation."""
        lat = self.rail.lat_us
        if self.plan is not None:
            lat += self.plan.extra_latency_us(src_node, dst_node)
        return lat * self.lat_factor

    def nic_link(self, name: str) -> Link:
        """A new NIC link of this rail, at the rail's current capacity."""
        link = Link(name, self.link_MBps)
        self._links.append(link)
        return link

    def degrade(self, bw_factor: float, lat_factor: float) -> None:
        """Set the rail's physical degradation (``1.0, 1.0`` restores it):
        existing NIC links are rescaled, later ones are born rescaled."""
        self.lat_factor = lat_factor
        self.link_MBps = bw = self.rail.bw_MBps * bw_factor
        for link in self._links:
            link.capacity = bw

    def transmit(
        self,
        src_node: int,
        dst_node: int,
        packet: Any,
        send_done_delay: float,
        lands: Optional[Callable[[NIC, Any], None]] = None,
    ) -> None:
        """Deliver ``packet`` to ``dst_node`` one latency after the sender
        finishes emitting it (``send_done_delay`` from now).

        ``lands(dst_nic, packet)`` replaces the delivery at the far end
        when a fault injector wants the last word on it."""
        if src_node == dst_node:
            raise PlatformError(f"rail {self.rail.name}: self-send from node {src_node}")
        dst = self.nic_of(dst_node)
        when = send_done_delay + self.latency_us(src_node, dst_node)
        if lands is None:  # the class's function: no bound method per packet
            self.sim.schedule(when, NIC.deliver, dst, packet)
        else:
            self.sim.schedule(when, lands, dst, packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Fabric {self.rail.name} nodes={len(self._nics)}>"
