"""Switch topologies: multi-switch fabrics for hundreds–thousands of nodes.

The paper's testbed is two nodes on a crossbar, so the base
:class:`~repro.hardware.wire.Fabric` needs no switch model.  Scaling the
simulator to cluster shapes (the ROADMAP's top open item) needs one: which
switches a transfer crosses decides both its extra latency (eager packets)
and which shared links its DMA flow contends on (bulk transfers).

A :class:`~repro.hardware.spec.TopologySpec` on a rail turns into a
:class:`TopologyPlan` here when the :class:`~repro.hardware.platform.Platform`
is built.  A plan is deliberately lazy — O(active) in the scale-out sense:

* inter-switch :class:`~repro.sim.flows.Link` objects are created on first
  use and shared by every route that crosses them (that sharing is what
  models uplink contention / oversubscription);
* routes are computed on demand and cached per ordered pair of
  *attachment switches* (every plan routes as a function of those), so a
  1024-node platform where only 8 pairs talk builds ≤ 8 routes, not ~10^6.

Routing is deterministic (pure arithmetic on node ids), which keeps event
schedules — and therefore simulated results — reproducible across
processes; the parallel sweep runner relies on this exactly like it does
on the flow network's insertion-order iteration.

Three plan kinds mirror the spec kinds:

* :class:`FatTreePlan` — two-level folded Clos (edge + spine).  Minimal
  routes: same edge switch = 1 hop, otherwise edge→spine→edge = 3 hops
  with the spine picked as ``(edge_src + edge_dst) % n_spines``;
* :class:`DragonflyPlan` — groups of routers, all-to-all intra-group,
  one global link per group pair, minimal l-g-l routing (1–4 hops);
* :class:`RailOptPlan` — the rail-optimized GPU-cluster shape: every rail
  is its own switch plane of leaves plus one spine; leaf uplinks are the
  oversubscription point.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..sim.flows import Link
from ..util.errors import ConfigError
from .presets import MYRI_10G, PAPER_HOST, QUADRICS_QM500
from .spec import PlatformSpec, RailSpec, TopologySpec

__all__ = [
    "TopologyPlan",
    "FatTreePlan",
    "DragonflyPlan",
    "RailOptPlan",
    "build_plan",
    "fat_tree_platform",
    "dragonfly_platform",
    "rail_optimized_platform",
    "topology_platform",
    "TOPOLOGY_BUILDERS",
    "describe_plan",
]


class TopologyPlan:
    """Runtime routing/link state of one rail's switch topology."""

    kind = "?"
    #: node ``i`` hangs off attachment switch ``i // hosts_per_switch`` (a
    #: fat-tree edge, dragonfly router or rail-opt leaf); each plan sets it.
    hosts_per_switch = 1

    def __init__(self, rail_name: str, topo: TopologySpec, n_nodes: int):
        self.rail_name = rail_name
        self.topo = topo
        self.n_nodes = n_nodes
        #: lazily created inter-switch links, keyed by a route-stable name.
        self._links: dict[str, Link] = {}
        #: (src switch, dst switch) -> (switch links crossed, hop count).
        self._routes: dict[tuple[int, int], tuple[tuple[Link, ...], int]] = {}

    # -- shared machinery --------------------------------------------------
    def _link(self, name: str) -> Link:
        link = self._links.get(name)
        if link is None:
            link = self._links[name] = Link(
                f"{self.rail_name}.{name}", self.topo.link_MBps
            )
        return link

    def route(self, src: int, dst: int) -> tuple[tuple[Link, ...], int]:
        """Inter-switch links crossed plus total switch-hop count.

        The returned links slot between the source NIC's TX link and the
        destination NIC's RX link in a DMA path; the hop count feeds
        :meth:`extra_latency_us`.  Cached per ordered switch pair.
        """
        per = self.hosts_per_switch
        key = (src // per, dst // per)
        out = self._routes.get(key)
        if out is None:
            out = self._routes[key] = self._route(src, dst)
        return out

    def extra_latency_us(self, src: int, dst: int) -> float:
        """Latency added by switch hops beyond the base crossing.

        The rail's ``lat_us`` already covers a single-switch traversal
        (that is what it was calibrated on), so only the extra hops pay
        ``hop_us`` each.
        """
        per = self.hosts_per_switch
        out = self._routes.get((src // per, dst // per))  # route()'s cache
        if out is None:
            out = self.route(src, dst)
        return max(0, out[1] - 1) * self.topo.hop_us

    @property
    def links_created(self) -> int:
        return len(self._links)

    @property
    def routes_cached(self) -> int:
        return len(self._routes)

    def _route(self, src: int, dst: int) -> tuple[tuple[Link, ...], int]:
        raise NotImplementedError

    def switch_count(self) -> int:
        """Total switches the topology implies (for description only)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} rail={self.rail_name} nodes={self.n_nodes}"
            f" links={len(self._links)} routes={len(self._routes)}>"
        )


class FatTreePlan(TopologyPlan):
    """Two-level folded Clos: edge switches under a spine layer."""

    kind = "fat_tree"

    def __init__(self, rail_name: str, topo: TopologySpec, n_nodes: int):
        super().__init__(rail_name, topo, n_nodes)
        self.hosts_per_switch = self.hosts_per_edge = max(1, min(topo.hosts, topo.radix // 2))
        self.n_edges = -(-n_nodes // self.hosts_per_edge)  # ceil
        self.n_spines = max(1, topo.radix // 2)

    def _route(self, src: int, dst: int) -> tuple[tuple[Link, ...], int]:
        e_src = src // self.hosts_per_edge
        e_dst = dst // self.hosts_per_edge
        if e_src == e_dst:
            return (), 1
        spine = (e_src + e_dst) % self.n_spines
        return (
            self._link(f"up.e{e_src}.s{spine}"),
            self._link(f"down.s{spine}.e{e_dst}"),
        ), 3

    def switch_count(self) -> int:
        return self.n_edges + self.n_spines


class DragonflyPlan(TopologyPlan):
    """Groups of routers; all-to-all locally, one global link per pair."""

    kind = "dragonfly"

    def __init__(self, rail_name: str, topo: TopologySpec, n_nodes: int):
        super().__init__(rail_name, topo, n_nodes)
        self.hosts_per_switch = self.hosts_per_router = topo.hosts
        self.routers_per_group = topo.routers
        per_group = self.hosts_per_router * self.routers_per_group
        need = -(-n_nodes // per_group)
        if topo.groups < need:
            raise ConfigError(
                f"dragonfly on rail {rail_name}: {topo.groups} groups of"
                f" {per_group} hosts cannot hold {n_nodes} nodes"
            )
        self.n_groups = topo.groups

    def _router(self, node: int) -> int:
        return node // self.hosts_per_router

    def _group(self, router: int) -> int:
        return router // self.routers_per_group

    def _gateway(self, group: int, peer_group: int) -> int:
        """Local router of ``group`` owning the global link to ``peer_group``."""
        slot = peer_group if peer_group < group else peer_group - 1
        return group * self.routers_per_group + slot % self.routers_per_group

    def _route(self, src: int, dst: int) -> tuple[tuple[Link, ...], int]:
        r_src, r_dst = self._router(src), self._router(dst)
        if r_src == r_dst:
            return (), 1
        g_src, g_dst = self._group(r_src), self._group(r_dst)
        if g_src == g_dst:
            return (self._link(f"local.r{r_src}.r{r_dst}"),), 2
        gw_src = self._gateway(g_src, g_dst)
        gw_dst = self._gateway(g_dst, g_src)
        links: list[Link] = []
        hops = 2
        if r_src != gw_src:
            links.append(self._link(f"local.r{r_src}.r{gw_src}"))
            hops += 1
        lo, hi = min(g_src, g_dst), max(g_src, g_dst)
        links.append(self._link(f"global.g{lo}.g{hi}.{int(g_src > g_dst)}"))
        if gw_dst != r_dst:
            links.append(self._link(f"local.r{gw_dst}.r{r_dst}"))
            hops += 1
        return tuple(links), hops

    def switch_count(self) -> int:
        return self.n_groups * self.routers_per_group


class RailOptPlan(TopologyPlan):
    """Rail-optimized plane: leaves of ``hosts`` hosts + one spine."""

    kind = "rail_opt"

    def __init__(self, rail_name: str, topo: TopologySpec, n_nodes: int):
        super().__init__(rail_name, topo, n_nodes)
        self.hosts_per_switch = self.hosts_per_leaf = topo.hosts
        self.n_leaves = -(-n_nodes // self.hosts_per_leaf)

    def _route(self, src: int, dst: int) -> tuple[tuple[Link, ...], int]:
        l_src = src // self.hosts_per_leaf
        l_dst = dst // self.hosts_per_leaf
        if l_src == l_dst:
            return (), 1
        return (
            self._link(f"up.l{l_src}"),
            self._link(f"down.l{l_dst}"),
        ), 3

    def switch_count(self) -> int:
        return self.n_leaves + 1


_PLAN_CLASSES = {
    "fat_tree": FatTreePlan,
    "dragonfly": DragonflyPlan,
    "rail_opt": RailOptPlan,
}


def build_plan(rail: RailSpec, n_nodes: int) -> Optional[TopologyPlan]:
    """The runtime plan of one rail, or None for a crossbar rail."""
    topo = rail.topology
    if topo is None:
        return None
    return _PLAN_CLASSES[topo.kind](rail.name, topo, n_nodes)


# --------------------------------------------------------------------- #
# preset platforms
# --------------------------------------------------------------------- #
_DEFAULT_RAILS = (MYRI_10G, QUADRICS_QM500)


def _with_topology(
    rails: Sequence[RailSpec], make_topo, n_nodes: int
) -> PlatformSpec:
    decorated = tuple(r.replace(topology=make_topo(r)) for r in rails)
    return PlatformSpec(rails=decorated, n_nodes=n_nodes, host=PAPER_HOST)


def fat_tree_platform(
    n_nodes: int,
    rails: Sequence[RailSpec] = _DEFAULT_RAILS,
    radix: int = 32,
    hop_us: float = 0.05,
    link_MBps: Optional[float] = None,
) -> PlatformSpec:
    """Two-level fat tree per rail; inter-switch links default to 2x the
    rail bandwidth (a modestly over-provisioned core)."""

    def topo(r: RailSpec) -> TopologySpec:
        return TopologySpec(
            kind="fat_tree",
            radix=radix,
            hosts=radix // 2,
            link_MBps=link_MBps if link_MBps is not None else 2.0 * r.bw_MBps,
            hop_us=hop_us,
        )

    return _with_topology(rails, topo, n_nodes)


def dragonfly_platform(
    n_nodes: int,
    rails: Sequence[RailSpec] = _DEFAULT_RAILS,
    routers_per_group: int = 8,
    hosts_per_router: int = 4,
    hop_us: float = 0.05,
    link_MBps: Optional[float] = None,
) -> PlatformSpec:
    """Dragonfly per rail; group count derived from the node count."""
    per_group = routers_per_group * hosts_per_router
    groups = max(1, -(-n_nodes // per_group))

    def topo(r: RailSpec) -> TopologySpec:
        return TopologySpec(
            kind="dragonfly",
            groups=groups,
            routers=routers_per_group,
            hosts=hosts_per_router,
            link_MBps=link_MBps if link_MBps is not None else 2.0 * r.bw_MBps,
            hop_us=hop_us,
        )

    return _with_topology(rails, topo, n_nodes)


def rail_optimized_platform(
    n_nodes: int,
    rails: Sequence[RailSpec] = _DEFAULT_RAILS,
    group: int = 8,
    oversubscription: float = 1.0,
    hop_us: float = 0.05,
) -> PlatformSpec:
    """Rail-optimized cluster: each rail its own leaf/spine plane.

    ``group`` hosts share a leaf switch; the leaf's spine uplink carries
    ``group / oversubscription`` times the rail bandwidth, so
    ``oversubscription > 1`` makes the uplink the contention point.
    """
    if group < 1:
        raise ConfigError(f"rail_optimized_platform: group must be >= 1, got {group}")
    if oversubscription <= 0:
        raise ConfigError("rail_optimized_platform: oversubscription must be positive")

    def topo(r: RailSpec) -> TopologySpec:
        return TopologySpec(
            kind="rail_opt",
            hosts=group,
            link_MBps=r.bw_MBps * group / oversubscription,
            hop_us=hop_us,
        )

    return _with_topology(rails, topo, n_nodes)


#: named builders for the CLI (`repro topo <name> --nodes N`).
TOPOLOGY_BUILDERS = {
    "fat_tree": fat_tree_platform,
    "dragonfly": dragonfly_platform,
    "rail_opt": rail_optimized_platform,
}


def topology_platform(name: str, n_nodes: int, **kwargs) -> PlatformSpec:
    """Build a preset topology platform by name."""
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown topology {name!r}; have {sorted(TOPOLOGY_BUILDERS)}"
        ) from None
    return builder(n_nodes, **kwargs)


def describe_plan(plan: TopologyPlan) -> dict[str, object]:
    """Structural summary of one rail's plan (for ``repro topo``)."""
    topo = plan.topo
    sample: list[dict[str, object]] = []
    n = plan.n_nodes
    for src, dst in ((0, 1), (0, n // 2), (0, n - 1)):
        if src == dst or not (0 <= dst < n):
            continue
        links, hops = plan.route(src, dst)
        sample.append(
            {
                "src": src,
                "dst": dst,
                "switch_hops": hops,
                "extra_latency_us": plan.extra_latency_us(src, dst),
                "links": [link.name for link in links],
            }
        )
    return {
        "kind": plan.kind,
        "rail": plan.rail_name,
        "n_nodes": n,
        "switches": plan.switch_count(),
        "link_MBps": topo.link_MBps,
        "hop_us": topo.hop_us,
        "sample_routes": sample,
    }
