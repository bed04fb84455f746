"""NIC model: per-rail network interface card attached to a host.

A NIC owns:

* one full-duplex pair of :class:`~repro.sim.flows.Link`\\ s (``tx_link`` /
  ``rx_link``, made on first use by the rail's fabric) capped at the rail's
  DMA bandwidth as it is at that moment;
* a receive queue drained by the driver's ``poll()``;
* a send-side **DMA engine** flag: one outstanding bulk (rendezvous)
  transmission at a time.  Eager/PIO sends do not use the DMA engine —
  they occupy the host CPU instead (see :mod:`repro.hardware.host`).

Separating "eager always possible (costs CPU)" from "one DMA in flight per
NIC" mirrors NewMadeleine's track model: the small-packet track and the
put/get track of Figure 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..sim.engine import Simulator
from ..sim.flows import Link
from ..util.errors import DriverError
from .spec import RailSpec

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host
    from .wire import Fabric

__all__ = ["NIC"]


class NIC:
    """One network interface card."""

    def __init__(self, sim: Simulator, host: "Host", rail: RailSpec, rail_index: int):
        self.sim = sim
        self.host = host
        self.rail = rail
        self.rail_index = rail_index
        name = f"node{host.node_id}.{rail.name}"
        self.name = name
        #: arrived packets, oldest first.  The driver's poll and the
        #: pump's park test read its truth value directly — most polls
        #: find it empty — and call :meth:`drain_rx` only when it is not.
        self.rx_queue: list[Any] = []
        #: made by the first read of ``tx_link`` / ``rx_link``.  (Declared
        #: here, not cached into ``__dict__`` later: touching an instance's
        #: ``__dict__`` makes every later attribute read on it 3x slower.)
        self._tx_link = self._rx_link = None
        #: the rail's fabric (set by it): what the links' capacity is now.
        self.fabric: "Fabric" = None  # type: ignore[assignment]
        #: True while a bulk transmission is in flight from this NIC;
        #: written only by :meth:`reserve_dma` / :meth:`release_dma`.
        self.dma_busy = False
        #: simulated time until which the eager TX path is occupied by an
        #: in-flight PIO copy.  Only binding when copies are offloaded to
        #: a PIO worker; with the single-threaded pump the copy itself
        #: blocks the engine, so the NIC can never be double-booked.
        self.tx_busy_until = 0.0
        host.attach_nic(self)

    @property
    def tx_link(self) -> Link:
        link = self._tx_link
        if link is None:
            link = self._tx_link = self.fabric.nic_link(f"{self.name}.tx")
        return link

    @property
    def rx_link(self) -> Link:
        link = self._rx_link
        if link is None:
            link = self._rx_link = self.fabric.nic_link(f"{self.name}.rx")
        return link

    # -- receive side ----------------------------------------------------
    def deliver(self, packet: Any) -> None:
        """Called by the fabric/flow completion: a packet landed here."""
        self.rx_queue.append(packet)
        self.host.wake()

    def drain_rx(self) -> list[Any]:
        """Remove and return all queued received packets (driver poll)."""
        out, self.rx_queue = self.rx_queue, []
        return out

    # -- send-side DMA engine ---------------------------------------------
    def reserve_dma(self) -> None:
        """Claim the DMA engine (from rendezvous commit until drain).

        The engine is claimed as soon as a strategy commits a rendezvous
        to this NIC — before the handshake completes — so that no second
        large transfer is scheduled onto a rail that is already spoken for.
        """
        if self.dma_busy:
            raise DriverError(f"{self.name}: DMA engine already busy")
        self.dma_busy = True
        self.host.dma_busy += 1

    def release_dma(self) -> None:
        """Free the DMA engine (last byte drained, or rendezvous aborted)."""
        if not self.dma_busy:
            raise DriverError(f"{self.name}: releasing idle DMA engine")
        self.dma_busy = False
        self.host.dma_busy -= 1
        # A freed DMA engine is a scheduling opportunity: wake the pump so
        # the strategy is consulted again ("when some NICs become idle ...
        # the optimizing scheduler is queried for some new packet").
        self.host.wake()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NIC {self.name} rx={len(self.rx_queue)} dma_busy={self.dma_busy}>"
