"""Flow-level bandwidth sharing with max-min fairness.

Large (DMA / rendezvous) transfers are not simulated packet by packet but as
*flows*: a flow has a byte size and a path through capacitated links (the
sending host's I/O bus, the NIC link, ...).  Whenever the set of active
flows changes, the network recomputes a **max-min fair** rate allocation via
progressive filling (water-filling) and reschedules each flow's completion
event.

This is the standard fluid model used by flow-level network simulators; it
captures exactly the effect the paper attributes its aggregate-bandwidth
ceiling to: two DMA streams (Myri-10G at 1200 MB/s and Quadrics at 850 MB/s)
contending for one I/O bus of ~2 GB/s.

Max-min fairness (progressive filling)
--------------------------------------
Repeatedly find the link whose *fair share* (residual capacity divided by
the number of unfrozen flows crossing it) is smallest; freeze all its flows
at that share; subtract their rates from every link they cross.  The result
is the unique allocation in which no flow can increase its rate without
decreasing the rate of a flow with an already-smaller-or-equal rate.

Invariants (property-tested in ``tests/property/test_flows_prop.py``):

* conservation — the sum of flow rates across any link never exceeds its
  capacity (within float tolerance);
* bottleneck condition — every flow crosses at least one saturated link on
  which it has a maximal rate;
* work conservation — a single flow on an otherwise idle path gets the
  minimum capacity along its path.

Incremental reallocation
------------------------
Starting, draining or cancelling a flow can only change the rates of
flows in the *connected component* of links transitively reachable from
the changed flow's path: max-min allocation decomposes exactly across
link-disjoint components (progressive filling never moves capacity
between components, and freeze order between components cannot change a
component's own bottleneck sequence).  :meth:`FlowNetwork._reallocate`
therefore recomputes rates only for that component, and within it skips
the completion-event cancel/reschedule for flows whose rate came out
bit-identical — the scheduled event already encodes the same completion
time.  Flow iteration follows insertion order everywhere (``_flows`` is
an ordered dict, never an id-ordered set), so event sequence numbers —
the FIFO tie-break among equal timestamps — are reproducible across
processes; the parallel sweep runner relies on this.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .engine import EventHandle, SimulationError, Simulator

__all__ = [
    "Link",
    "Flow",
    "FlowNetwork",
    "FlowError",
    "max_min_rates",
    "make_flow_network",
]

_EPS = 1e-9

#: entries a network's allocation table may hold before it is cleared
#: wholesale (P ranks of DMA traffic have O(P^2) component shapes).
_RATE_TABLE_MAX = 1024
#: largest component the table remembers.  A longer one almost never
#: repeats flow for flow, and its key would cost a tuple and a hash as
#: long as the component on every reallocation, hit or miss.
_RATE_TABLE_FLOWS = 8


class FlowError(SimulationError):
    """Raised on flow-network misuse."""


#: ``Link.active_flows`` of a link no flow has crossed yet (shared, hence
#: immutable); :meth:`FlowNetwork.start_flow` replaces it with a set.
_NO_FLOWS: frozenset = frozenset()

#: a flow's path: the allocation table's key is the tuple of these
_path_of = attrgetter("path")


class Link:
    """A capacitated, work-conserving link.

    ``capacity`` is in bytes per microsecond, numerically equal to MB/s
    (with 1 MB = 1e6 B).  Links carry no latency themselves; propagation
    latency is accounted for by the caller (see
    :meth:`FlowNetwork.start_flow`'s ``extra_latency``).
    """

    __slots__ = ("name", "capacity", "active_flows")

    def __init__(self, name: str, capacity_MBps: float):
        if not 0 < capacity_MBps < math.inf:  # also rejects NaN
            raise FlowError(
                f"link {name!r} capacity must be finite and positive,"
                f" got {capacity_MBps}"
            )
        self.name = name
        self.capacity = float(capacity_MBps)
        self.active_flows: "set[Flow] | frozenset[Flow]" = _NO_FLOWS

    @property
    def utilization(self) -> float:
        """Current fraction of capacity in use (0..1)."""
        used = sum(f.rate for f in self.active_flows)
        return used / self.capacity

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} cap={self.capacity} active={len(self.active_flows)}>"


class Flow:
    """One in-flight bulk transfer."""

    __slots__ = (
        "fid",
        "path",
        "size",
        "remaining",
        "rate",
        "on_complete",
        "on_drain",
        "start_time",
        "last_update",
        "_completion_ev",
        "done",
        "extra_latency",
        "tag",
    )

    def __init__(
        self,
        fid: int,
        path: Sequence[Link],
        size: float,
        on_complete: Optional[Callable[["Flow"], None]],
        start_time: float,
        extra_latency: float,
        tag: object = None,
        on_drain: Optional[Callable[["Flow"], None]] = None,
    ):
        self.fid = fid
        self.path = tuple(path)
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.on_complete = on_complete
        self.on_drain = on_drain
        self.start_time = start_time
        self.last_update = start_time
        self._completion_ev: Optional[EventHandle] = None
        self.done = False
        self.extra_latency = extra_latency
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Flow {self.fid} size={self.size:.0f} rem={self.remaining:.0f}"
            f" rate={self.rate:.1f}>"
        )


def max_min_rates(
    flows: Iterable[Flow], capacities: Optional[dict[Link, float]] = None
) -> dict[Flow, float]:
    """Compute the max-min fair allocation for ``flows``.

    Pure function (no simulator state) so it can be property-tested in
    isolation.  ``capacities`` optionally overrides link capacities.
    """
    flows = list(flows)
    if not flows:
        return {}
    residual: dict[Link, float] = {}
    counts: dict[Link, int] = {}
    for f in flows:
        if not f.path:
            raise FlowError(f"flow {f.fid} has an empty path")
        for link in f.path:
            residual.setdefault(link, capacities[link] if capacities else link.capacity)
            counts[link] = counts.get(link, 0) + 1

    rates: dict[Flow, float] = {}
    # insertion-ordered (not an id-hashed set) so the float update order —
    # and with it the last-ulp result — is reproducible across processes.
    unfrozen: dict[Flow, None] = dict.fromkeys(flows)
    while unfrozen:
        # Fair share of each link still crossed by unfrozen flows.
        bottleneck: Optional[Link] = None
        best_share = math.inf
        for link, n in counts.items():
            if n <= 0:
                continue
            share = residual[link] / n
            if share < best_share - _EPS:
                best_share = share
                bottleneck = link
        if bottleneck is None:  # pragma: no cover - defensive
            raise FlowError("no bottleneck found with unfrozen flows remaining")
        # Freeze every unfrozen flow crossing the bottleneck at best_share.
        frozen_now = [f for f in unfrozen if bottleneck in f.path]
        for f in frozen_now:
            rates[f] = best_share
            del unfrozen[f]
            for link in f.path:
                residual[link] = max(0.0, residual[link] - best_share)
                counts[link] -= 1
    return rates


class FlowNetwork:
    """Manages active flows and keeps their completion events consistent."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: insertion-ordered so reallocation visits flows deterministically
        #: (event seq assignment must not depend on id()-hash order).
        self._flows: dict[Flow, None] = {}
        self._fid = itertools.count(1)
        self.completed_count = 0
        self.total_bytes_completed = 0.0
        #: completion events actually (re)scheduled — the regression
        #: counter for the incremental-reallocation fast path.
        self.reschedule_count = 0
        #: allocations already computed, by component *shape*: the ordered
        #: tuple of the affected flows' paths -> the rates max_min_rates
        #: gave them, in the same order (see _reallocate).
        self._rate_table: dict[tuple, tuple[float, ...]] = {}

    @property
    def active_flows(self) -> frozenset[Flow]:
        return frozenset(self._flows)

    # ------------------------------------------------------------------ #
    def start_flow(
        self,
        path: Sequence[Link],
        size: float,
        on_complete: Optional[Callable[[Flow], None]] = None,
        extra_latency: float = 0.0,
        tag: object = None,
        on_drain: Optional[Callable[[Flow], None]] = None,
    ) -> Flow:
        """Begin a transfer of ``size`` bytes along ``path``.

        ``on_drain(flow)`` fires when the last byte leaves the sending side
        (the sender's DMA engine is free again); ``on_complete(flow)`` fires
        ``extra_latency`` microseconds later (propagation to the far end).
        Zero-size flows complete after ``extra_latency`` without occupying
        the network.
        """
        if not 0 <= size < math.inf:  # also rejects NaN
            raise FlowError(f"flow size must be finite and >= 0, got {size}")
        flow = Flow(
            next(self._fid),
            path,
            size,
            on_complete,
            self.sim.now,
            extra_latency,
            tag,
            on_drain,
        )
        if size == 0:
            if on_drain is not None:
                self.sim.schedule(0.0, on_drain, flow)
            self.sim.schedule(extra_latency, self._finish, flow)
            return flow
        if not flow.path:
            raise FlowError(
                f"flow {flow.fid} ({size} bytes, tag={tag!r}) has an empty path"
            )
        self._flows[flow] = None
        for link in flow.path:
            if link.active_flows is _NO_FLOWS:
                link.active_flows = {flow}
            else:
                link.active_flows.add(flow)
        self._reallocate(flow)
        return flow

    def refresh(self) -> None:
        """Recompute all rates after an external link-capacity change.

        Capacities are normally constant for the life of a network; the
        fault injector mutates them when a rail degrades or recovers and
        must then resynchronize every affected completion event.  Every
        remembered allocation was computed from the old capacities, so
        the table goes first.
        """
        self._rate_table.clear()
        if self._flows:
            self._reallocate(None)

    def cancel_flow(self, flow: Flow) -> None:
        """Abort a flow; its completion callback never fires."""
        if flow.done or flow not in self._flows:
            return
        self._settle()
        self._detach(flow)
        flow.done = True
        flow.on_complete = None
        flow.on_drain = None
        self._reallocate(flow)

    # ------------------------------------------------------------------ #
    def _detach(self, flow: Flow) -> None:
        self._flows.pop(flow, None)
        for link in flow.path:
            link.active_flows.discard(flow)
        if flow._completion_ev is not None:
            flow._completion_ev.cancel()
            flow._completion_ev = None

    def _settle(self) -> None:
        """Account for bytes moved at the current rates since last update."""
        now = self.sim.now
        for f in self._flows:
            elapsed = now - f.last_update
            if elapsed > 0:
                f.remaining = max(0.0, f.remaining - f.rate * elapsed)
            f.last_update = now

    def _component(self, origin: Flow) -> list[Flow]:
        """Active flows transitively sharing links with ``origin``'s path.

        ``origin`` itself is included when still active.  The returned
        list follows ``_flows`` insertion order so event scheduling stays
        deterministic regardless of traversal order; fids are assigned in
        insertion order, so sorting the component by fid reproduces that
        order in O(k log k).  The walk and the allocation depend only on
        the size of the affected shard; the reallocation as a whole does
        not, because :meth:`_settle` first brings *every* active flow up
        to now — and must: a flow settled in fewer, longer steps reaches
        a ``remaining`` that differs in the last ulp, and with it every
        completion time downstream.

        When one link of ``origin``'s path carries every active flow (the
        host bus of a 2-node flood does), the component is all of them
        and the walk is skipped.
        """
        n_flows = len(self._flows)
        for link in origin.path:
            if len(link.active_flows) == n_flows:
                return list(self._flows)
        seen_links: set[Link] = set(origin.path)
        member: set[Flow] = set()
        stack: list[Link] = list(origin.path)
        while stack:
            link = stack.pop()
            for f in link.active_flows:
                if f not in member:
                    member.add(f)
                    for other in f.path:
                        if other not in seen_links:
                            seen_links.add(other)
                            stack.append(other)
        if len(member) == len(self._flows):
            return list(self._flows)
        return sorted(member, key=lambda f: f.fid)

    def _reallocate(self, origin: Optional[Flow] = None) -> None:
        """Recompute max-min rates and reschedule stale completions.

        With ``origin`` given (the flow that just started, drained or was
        cancelled), only its link-connected component is recomputed — any
        other flow's allocation is provably unchanged (see module
        docstring).  Within the component, a flow whose rate came out
        bit-identical keeps its already-scheduled completion event: the
        event encodes the same completion time, so cancelling and
        re-pushing it would only grow the heap with a tombstone.

        An allocation is a function of the component's *shape* alone —
        which links each flow crosses, in which flow order — and of the
        link capacities, which only change under :meth:`refresh`.  Traffic
        repeats a handful of shapes (a flood alternates between one and
        two DMA streams), so :func:`max_min_rates` runs once per shape of
        up to ``_RATE_TABLE_FLOWS`` flows and its answer is kept under the
        ordered tuple of paths.  Order is part of the key because it
        fixes the order of the float updates inside the allocator:
        ``[A, B]`` and ``[B, A]`` may differ in the last ulp, so each
        keeps the floats its own computation returned.
        """
        self._settle()
        affected = self._component(origin) if origin is not None else list(self._flows)
        table = self._rate_table
        rates = shape = None
        if len(affected) <= _RATE_TABLE_FLOWS:
            shape = tuple(map(_path_of, affected))
            rates = table.get(shape)
        if rates is None:
            by_flow = max_min_rates(affected)
            rates = tuple([by_flow[f] for f in affected])
            for f, new_rate in zip(affected, rates):
                if new_rate <= _EPS:  # pragma: no cover - defensive
                    raise FlowError(f"flow {f.fid} allocated zero rate")
            if shape is not None:
                if len(table) >= _RATE_TABLE_MAX:
                    table.clear()
                table[shape] = rates
        schedule = self.sim.schedule
        for f, new_rate in zip(affected, rates):
            ev = f._completion_ev
            if new_rate == f.rate and ev is not None and ev.alive:
                continue
            f.rate = new_rate
            if ev is not None:
                ev.cancel()
            self.reschedule_count += 1
            f._completion_ev = schedule(f.remaining / new_rate, self._on_drain, f)

    def _on_drain(self, flow: Flow) -> None:
        """The flow's last byte has left; deliver after propagation."""
        if flow.done or flow not in self._flows:
            return
        self._settle()
        # Float guard: the event fired, so the flow is drained by design.
        flow.remaining = 0.0
        self._detach(flow)
        if flow.on_drain is not None:
            flow.on_drain(flow)
        if flow.extra_latency > 0:
            self.sim.schedule(flow.extra_latency, self._finish, flow)
        else:
            self._finish(flow)
        # Remaining flows sharing links with the drained one speed up.
        if self._flows:
            self._reallocate(flow)

    def _finish(self, flow: Flow) -> None:
        flow.done = True
        self.completed_count += 1
        self.total_bytes_completed += flow.size
        if flow.on_complete is not None:
            flow.on_complete(flow)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FlowNetwork active={len(self._flows)} done={self.completed_count}>"


def make_flow_network(sim: Simulator) -> FlowNetwork:
    """The flow network of ``sim`` (there is one allocator; DESIGN.md §6f)."""
    return FlowNetwork(sim)
