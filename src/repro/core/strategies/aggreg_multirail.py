"""Aggregation on the fastest rail + greedy balancing of large segments
(§3.3 / Fig 6).

The second refinement of the paper: "aggregates small messages as soon as
they are submitted, favoring their transfer on the fastest network (that
is, Quadrics) and proceeding afterward in a greedy fashion".

* *small* segments (eager-eligible on the lowest-latency rail) go to a
  dedicated queue served **only** by that rail, with opportunistic
  aggregation;
* *large* segments are balanced greedily: the first consulted driver with
  a free DMA engine takes the head of the large queue as a single-chunk
  rendezvous (one over MX/Myri-10G, one over Elan/Quadrics, ...).

That is the two-queue discipline of the whole aggregate-on-fastest family;
how a large segment is chunked is its one policy hook,
:meth:`AggregMultirailStrategy.large_chunks`, which ``split_balance``
overrides to strip the segment across idle rails.

The Fig 6 gap versus a Quadrics-only configuration comes from the engine,
not from this strategy: the Myri-10G NIC still has to be polled on every
progress sweep.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from ...util.errors import StrategyError
from ..packet import PacketWrapper
from ..request import SendRequest
from .base import NO_SEGMENTS, Strategy

if TYPE_CHECKING:  # pragma: no cover
    from ...drivers.base import Driver
    from ..scheduler import NodeEngine

__all__ = ["AggregMultirailStrategy"]


class AggregMultirailStrategy(Strategy):
    """Small → aggregate on fastest rail; large → greedy over idle rails."""

    name = "aggreg_multirail"

    def __init__(self) -> None:
        super().__init__()
        self._small: Deque[SendRequest] = NO_SEGMENTS
        self._large: Deque[SendRequest] = NO_SEGMENTS
        self._fastest_index: Optional[int] = None
        #: largest payload that is "small" (eager-eligible on the fastest
        #: rail); fixed at bind.
        self._small_max = -1

    # ------------------------------------------------------------------ #
    def bind(self, engine: "NodeEngine") -> None:
        super().bind(engine)
        drivers = engine.drivers
        if not drivers:
            raise StrategyError("no drivers to bind to")
        fastest = min(drivers, key=lambda d: d.latency_us)
        self._fastest_index = fastest.rail_index
        self._small_max = fastest.max_eager_payload

    @property
    def fastest_index(self) -> int:
        if self._fastest_index is None:
            raise StrategyError(f"strategy {self.name} not bound yet")
        return self._fastest_index

    # ------------------------------------------------------------------ #
    def pack(self, engine: "NodeEngine", request: SendRequest) -> None:
        if request.payload.size <= self._small_max:
            if self._small is NO_SEGMENTS:
                self._small = deque()
            self._small.append(request)
            self.quiet = self.dma_bound = False
        else:
            # a large segment leaves only by DMA: the DMA clause still holds
            if self._large is NO_SEGMENTS:
                self._large = deque()
            self._large.append(request)
            self.quiet = False

    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        if self._ctrl_pending:
            return self.commit_ctrl(engine, driver)
        small = self._small
        if not small:
            if not self._large:
                self.quiet = True
                return None
            # only large segments: nothing to say to a DMA-busy driver
            self.dma_bound = True
        # small messages: only on the fastest usable rail, aggregated
        elif driver.rail_index == self.usable_rail_index(engine, self.fastest_index):
            pw = driver.new_wrapper(small[0].peer)
            if self.fill_with_eager(pw, driver, small) == 0:
                # failover rail with a smaller eager limit than the head
                # segment needs: wait for a rail that can carry it
                return None
            return pw
        # large messages: only planned when the consulted rail's DMA is free
        if self._large and driver.dma_idle:
            request = self._large[0]
            chunks = self.large_chunks(engine, driver, request)
            self._large.popleft()
            return self.commit_rdv(engine, driver, request, chunks)
        return None

    def large_chunks(
        self, engine: "NodeEngine", driver: "Driver", request: SendRequest
    ) -> list[tuple[int, int, int]]:
        """The chunk plan of the large queue's head ``request`` (still
        queued), consulted for the usable, DMA-idle ``driver``:
        ``[(rail_index, offset, length), ...]``.  Greedy: the whole segment
        on ``driver``.
        """
        return [(driver.rail_index, 0, request.payload.size)]

    @property
    def backlog(self) -> int:
        return len(self._small) + len(self._large)
