"""Host (node) model: comm CPU, memory-copy engine, I/O bus.

The paper's key host-side effect is that **PIO transfers monopolize the
CPU** ("this technique ... monopolizes the CPU and prevents the overlapping
of part of the message transfer with other computations").  In this model
the engine's progress pump is a single simulated process per node, so any
PIO copy it performs naturally serializes with every other pump action on
the same node — including PIO sends on *other* NICs, which is exactly why
greedy multi-rail balancing does not help below the eager threshold.

The I/O bus is one capacitated :class:`~repro.sim.flows.Link` per direction,
made on first use and shared by all NICs of the node; DMA flows cross it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.engine import Simulator
from ..sim.flows import Link
from ..sim.process import Signal
from .spec import HostSpec

if TYPE_CHECKING:  # pragma: no cover
    from .nic import NIC

__all__ = ["Host"]


class Host:
    """One cluster node."""

    def __init__(self, sim: Simulator, node_id: int, spec: HostSpec):
        self.sim = sim
        self.node_id = node_id
        self.spec = spec
        self._bus_tx = self._bus_rx = None  # made on first read, like NIC links
        #: Fired whenever something happened that may let the engine make
        #: progress: a packet arrived on any local NIC, a local DMA drained,
        #: or the application submitted a request.
        self.activity = Signal(sim, name=f"node{node_id}.activity")
        self.nics: list["NIC"] = []
        #: busy-until times of the extra PIO threads (future-work mode).
        self._pio_worker_busy = [0.0] * spec.pio_workers
        self.pio_offloads = 0
        #: DMA engines of this node's NICs claimed right now (kept by
        #: :meth:`NIC.reserve_dma` / :meth:`NIC.release_dma`).
        self.dma_busy = 0
        #: one-shot hook run on the first wake of this host; the session
        #: uses it to build the node's engine on demand (lazy engines),
        #: so a packet landing on a never-touched node still finds a pump.
        self.engine_hook = None

    # -- I/O bus, one link per direction (DMA reads for TX, writes for RX)
    @property
    def bus_tx(self) -> Link:
        link = self._bus_tx
        if link is None:
            link = self._bus_tx = Link(f"node{self.node_id}.bus.tx", self.spec.bus_MBps)
        return link

    @property
    def bus_rx(self) -> Link:
        link = self._bus_rx
        if link is None:
            link = self._bus_rx = Link(f"node{self.node_id}.bus.rx", self.spec.bus_MBps)
        return link

    def attach_nic(self, nic: "NIC") -> None:
        self.nics.append(nic)

    # -- parallel-PIO worker pool (the paper's §4 future work) -----------
    @property
    def has_pio_workers(self) -> bool:
        return bool(self._pio_worker_busy)

    def try_claim_pio_worker(self, start: float, duration: float) -> bool:
        """Claim an extra PIO thread for ``[start, start+duration)``.

        Returns False when every worker is still busy at ``start`` — the
        caller then performs the copy on the pump itself (the paper's
        single-threaded behaviour).
        """
        for i, busy_until in enumerate(self._pio_worker_busy):
            if busy_until <= start:
                self._pio_worker_busy[i] = start + duration
                self.pio_offloads += 1
                return True
        return False

    def wake(self) -> None:
        """Fire the activity signal (idempotent if nobody is waiting).

        Half of all wakes find the pump already running; those count the
        fire and skip the call — :meth:`Signal.fire` would do the same.
        """
        if self.engine_hook is not None:
            hook, self.engine_hook = self.engine_hook, None
            hook()
        activity = self.activity
        if activity._waiters:
            activity.fire()
        else:
            activity.fire_count += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.node_id} nics={len(self.nics)}>"
