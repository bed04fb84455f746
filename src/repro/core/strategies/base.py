"""Strategy (optimizing scheduler) interface.

A strategy is the interchangeable middle-layer module of Figure 1: it
*collects* application segments — each one the
:class:`~repro.core.request.SendRequest` its ``isend`` returned — through
:meth:`Strategy.pack`, and is *consulted
just-in-time* whenever the engine's pump finds a NIC able to emit
(:meth:`Strategy.try_and_commit`).  Between those two moments requests
accumulate — that backlog is the paper's "optimization window", and it is
what aggregation, balancing and splitting decisions are made over.

Contract for ``try_and_commit(engine, driver)``:

* return a :class:`~repro.core.packet.PacketWrapper` bound to ``driver``'s
  rail (``rail_index`` set) whose wire size fits the driver's eager
  threshold — the pump will post it and charge the PIO cost; or ``None``
  if nothing should be emitted on this driver right now;
* the pump asks for **at most one wrapper per driver per sweep**, fastest
  rail first (that is what spreads a backlog across NICs), and only for
  a driver that is usable and whose eager path is free — so a strategy
  cannot count on being consulted for every driver on every sweep, and a
  ``None`` answer must leave the strategy exactly as it was;
* large segments are not emitted directly: the strategy picks a chunking
  and hands it to :meth:`Strategy.commit_rdv`, which initiates the
  rendezvous (reserving the DMA engines) and returns the RDV_REQ wrapper;
* **ask only who can answer** — two optional flags let a strategy say in
  advance that its answer is ``None``, so that the pump does not consult
  it, nor read its ``backlog``, where that answer is known:

  ==================  ==========================================  ==========================
  flag                set by a consultation that finds            pump skips, while it holds
  ==================  ==========================================  ==========================
  :attr:`quiet`       *every* queue empty (control included)      every driver
  :attr:`dma_bound`   control and small queues empty: all it      every driver whose DMA
                      holds waits for a DMA engine                engine is busy
  ==================  ==========================================  ==========================

  Whoever accepts work that could change the answer must reset the flag:
  :meth:`Strategy.pack_ctrl` resets both, :meth:`Strategy.pack` (and any
  override) resets ``quiet``, and ``dma_bound`` too unless the segment
  itself can only leave by DMA.  The flags are optional: a strategy that
  never sets them is consulted as described above, and one whose
  consultations do more than look (an epoch clock, a candidate race) must
  not set them.  :class:`~.checker.CheckedStrategy` still consults a
  flagged strategy and verifies both clauses (``quiet-with-work``,
  ``dma-bound-with-work``).
* which rails a strategy uses is its own rule: the pump asks it about
  every usable rail, and a strategy pinned to one answers ``None`` for
  the others.

Control entries (RDV_ACKs queued by the engine) are kept in a per-peer
queue here in the base class; every concrete strategy emits pending
control before data, on the first driver consulted — which, given the
pump's fastest-first commit order, puts handshakes on the lowest-latency
rail, like NewMadeleine does.

A strategy keeps no statistics of its own: what it committed is counted
once, by the engine (``Counters``: ``aggregated_segments``; its
``segments_submitted`` and ``packets_committed`` are read off the send
channels and the drivers) and by the rendezvous manager
(``RdvManager.initiated`` / ``split_count``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from ...util.errors import StrategyError
from ..packet import Entry, PacketWrapper
from ..request import SendRequest

if TYPE_CHECKING:  # pragma: no cover
    from ...drivers.base import Driver
    from ..scheduler import NodeEngine

__all__ = ["Strategy", "NO_SEGMENTS"]

#: a submission queue nothing was packed into yet (shared, hence
#: immutable): ``pack`` replaces it with a deque on first use, so an
#: engine that never sends large segments never owns a large queue.
NO_SEGMENTS: Deque[SendRequest] = ()  # type: ignore[assignment]


class Strategy(ABC):
    """Base class for optimizing schedulers (one instance per node)."""

    #: registry name; subclasses override.
    name = "abstract"

    #: opt-in to completion observations: when True the engine installs
    #: this strategy as every driver's ``observer`` and :meth:`observe`
    #: fires for each finished PIO post and drained DMA chunk.  Static
    #: strategies leave it False and the hooks cost nothing.
    wants_observations = False

    #: "every queue was empty when last consulted and nothing has been
    #: packed since" — see "ask only who can answer" in the module docstring.
    quiet = False

    #: "no control entry and no small segment was queued when last
    #: consulted, nor since: the answer for a driver whose DMA engine is
    #: busy is None" — the DMA clause, next to :attr:`quiet`.
    dma_bound = False

    def __init__(self) -> None:
        self.engine: Optional["NodeEngine"] = None
        self._ctrl: dict[int, Deque[Entry]] = {}
        #: control entries queued and not yet emitted — lets a strategy
        #: with nothing to send say so without scanning ``_ctrl``.
        self._ctrl_pending = 0
        # the flags' class defaults are what a strategy that never sets
        # them reads; made instance attributes here, setting one later
        # does not give every instance a dictionary of its own
        self.quiet = self.dma_bound = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def bind(self, engine: "NodeEngine") -> None:
        """Attach to a node engine (called once, before any traffic)."""
        if self.engine is not None:
            raise StrategyError(f"strategy {self.name} bound twice")
        self.engine = engine

    # ------------------------------------------------------------------ #
    # collect side
    # ------------------------------------------------------------------ #
    @abstractmethod
    def pack(self, engine: "NodeEngine", request: SendRequest) -> None:
        """Accept one application segment — its send request, queued as
        it is — into the submission queues."""

    def pack_ctrl(self, engine: "NodeEngine", dst_node: int, entry: Entry) -> None:
        """Queue a control entry (e.g. RDV_ACK) for ``dst_node``."""
        self._ctrl.setdefault(dst_node, deque()).append(entry)
        self._ctrl_pending += 1
        self.quiet = self.dma_bound = False

    def observe(
        self, rail_index: int, kind: str, nbytes: int, start_us: float, end_us: float
    ) -> None:
        """One completed transfer on ``rail_index``: ``kind`` is ``"pio"``
        (eager post, wire bytes over the charged post+copy interval) or
        ``"dma"`` (rendezvous chunk, payload bytes over the flow's drain
        interval).  Only called when :attr:`wants_observations` is True;
        implementations must not schedule events — observations are pure
        state updates, so enabling them never perturbs the simulation.
        """

    def epoch_index(self) -> object:
        """The adaptation epoch an adaptive strategy is in, else ``None``."""
        return None

    def current_ratios(self) -> Optional[tuple[float, ...]]:
        """An adaptive strategy's per-rail split weights, else ``None``;
        they may change only when :meth:`epoch_index` does."""
        return None

    # ------------------------------------------------------------------ #
    # scheduling side
    # ------------------------------------------------------------------ #
    @abstractmethod
    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        """Produce the next wrapper for ``driver``, or None."""

    @property
    @abstractmethod
    def backlog(self) -> int:
        """Segments collected and not yet committed — the depth of the
        optimization window the pump observes before each consultation."""

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def usable_rail_index(self, engine: "NodeEngine", preferred: int) -> int:
        """``preferred``, or the fastest *usable* rail when it is down.

        Strategies that statically favour one rail (the "fastest" rail of
        the aggregation strategies) route through this so a detected
        outage fails their traffic over to a surviving rail — and moves
        it back the moment the preferred rail recovers.  With no faults
        active every driver reports usable and this returns ``preferred``
        on the first check.
        """
        if engine.drivers[preferred].usable:
            return preferred
        for idx in engine._order:
            if engine.drivers[idx].usable:
                return idx
        return preferred

    def commit_ctrl(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        """Emit all queued control entries for one peer, if any.

        Control entries are tiny; all entries for one destination aggregate
        into a single wrapper.
        """
        if not self._ctrl_pending:
            return None
        for dst_node, queue in self._ctrl.items():
            if not queue:
                continue
            pw = driver.new_wrapper(dst_node)
            self._ctrl_pending -= len(queue)
            while queue:
                pw.add(queue.popleft())
            return pw
        return None

    def commit_rdv(
        self,
        engine: "NodeEngine",
        driver: "Driver",
        request: SendRequest,
        chunks: list[tuple[int, int, int]],
    ) -> PacketWrapper:
        """Start the rendezvous of ``request`` over ``chunks``
        (``[(rail_index, offset, length), ...]``) and wrap its RDV_REQ for
        ``driver``.

        The one place a strategy initiates a rendezvous; the caller has
        already taken ``request`` off its queue.
        """
        pw = driver.new_wrapper(request.peer)
        pw.add(engine.rdv.initiate(request, chunks))
        return pw

    def append_segment(self, pw: PacketWrapper, request: SendRequest) -> None:
        """Embed a whole segment as an eager entry of ``pw``."""
        pw.embed(request)

    def fill_with_eager(
        self,
        pw: PacketWrapper,
        driver: "Driver",
        queue: Deque[SendRequest],
    ) -> int:
        """Opportunistic aggregation: move queue-head segments into ``pw``.

        Takes consecutive head segments that (a) target ``pw``'s peer and
        (b) still fit the driver's eager packet limit; stops at the first
        segment that fails either test (FIFO order is never violated for a
        given peer).  Each taken segment is visited once — the fit test
        reads the wrapper's running ``wire_bytes``.  Returns the number of
        segments aggregated.
        """
        taken = 0
        dst_node = pw.dst_node
        room = driver.max_eager_payload
        embed = pw.embed
        while queue:
            request = queue[0]
            if request.peer != dst_node:
                break
            if pw.wire_bytes + request.payload.size > room:
                break
            queue.popleft()
            embed(request)
            taken += 1
        return taken

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Strategy {self.name}>"
