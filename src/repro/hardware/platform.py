"""Platform assembly: hosts × NICs × fabrics + the shared flow network.

:class:`Platform` is the concrete simulated counterpart of a
:class:`~repro.hardware.spec.PlatformSpec`.  The communication engine
(:mod:`repro.core`) is built *on top of* a platform; the platform itself
knows nothing about protocols or strategies.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Simulator
from ..sim.flows import FlowNetwork, Link
from ..util.errors import PlatformError
from .host import Host
from .nic import NIC
from .spec import PlatformSpec
from .topology import TopologyPlan, build_plan
from .wire import Fabric

__all__ = ["Platform"]


class Platform:
    """The simulated cluster."""

    def __init__(self, sim: Simulator, spec: PlatformSpec):
        self.sim = sim
        self.spec = spec
        self.flownet = FlowNetwork(sim)
        self.hosts: list[Host] = [
            Host(sim, node_id, spec.host) for node_id in range(spec.n_nodes)
        ]
        # one NIC per (node, rail), then one fabric per rail; rails with a
        # declared switch topology get a routing plan (None = crossbar)
        self._nics: list[list[NIC]] = []  # indexed [rail][node]
        self.fabrics: list[Fabric] = []
        self.topologies: list[Optional[TopologyPlan]] = []
        for rail_index, rail in enumerate(spec.rails):
            rail_nics = [NIC(sim, host, rail, rail_index) for host in self.hosts]
            plan = build_plan(rail, spec.n_nodes)
            self._nics.append(rail_nics)
            self.topologies.append(plan)
            self.fabrics.append(Fabric(sim, rail, rail_nics, plan=plan))

    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes

    @property
    def n_rails(self) -> int:
        return self.spec.n_rails

    def _node(self, node_id: int) -> int:
        """``node_id``, checked — a negative one must not index from the end."""
        if not 0 <= node_id < self.spec.n_nodes:
            raise PlatformError(f"no node {node_id} (have {self.n_nodes})")
        return node_id

    def host(self, node_id: int) -> Host:
        return self.hosts[self._node(node_id)]

    def nic(self, rail_index: int, node_id: int) -> NIC:
        try:
            return self._nics[rail_index][self._node(node_id)]
        except IndexError:
            raise PlatformError(f"no rail {rail_index} (have {self.n_rails})") from None

    def fabric(self, rail_index: int) -> Fabric:
        try:
            return self.fabrics[rail_index]
        except IndexError:
            raise PlatformError(f"no rail {rail_index} (have {self.n_rails})") from None

    def dma_path(self, rail_index: int, src_node: int, dst_node: int) -> list[Link]:
        """The capacitated links a bulk transfer crosses.

        src I/O bus (TX) → src NIC link → [inter-switch links] → dst NIC
        link → dst I/O bus (RX).  The two NIC links have equal capacity;
        both are included so that incast (two senders, one receiver NIC)
        is also modelled correctly.  On a rail with a switch topology the
        route's shared inter-switch links slot in between, which is what
        models uplink contention and oversubscription.
        """
        src_nic = self.nic(rail_index, src_node)
        dst_nic = self.nic(rail_index, dst_node)
        path = [self.hosts[src_node].bus_tx, src_nic.tx_link]  # ids checked by nic()
        plan = self.topologies[rail_index]
        if plan is not None:
            links, _hops = plan.route(src_node, dst_node)
            path.extend(links)
        path.append(dst_nic.rx_link)
        path.append(self.hosts[dst_node].bus_rx)
        return path

    def wire_latency_us(self, rail_index: int, src_node: int, dst_node: int) -> float:
        """One-way wire latency between two nodes on a rail, ids checked
        (see :meth:`Fabric.latency_us`, which eager packets pay too)."""
        return self.fabrics[rail_index].latency_us(
            self._node(src_node), self._node(dst_node)
        )

    def __repr__(self) -> str:  # pragma: no cover
        rails = ",".join(r.name for r in self.spec.rails)
        return f"<Platform nodes={self.n_nodes} rails=[{rails}]>"
