"""The one-queue strategies: a FIFO, pinned to a rail or not (§3.1–3.2).

``single_rail`` produces the paper's "Regular messages" and per-network
reference curves: strict FIFO, one packet per segment, no optimization.
It accepts a ``rail`` option (name or index, default rail 0) selecting
which network to use; all other rails are still *polled* by the engine —
forcing a single rail does not remove the other NIC from the progress loop
(that is precisely the Fig 6 overhead).

``aggreg`` (§3 / Figs 2-3) is the same FIFO with opportunistic
aggregation: when consulted, it copies every queued eager-eligible segment
bound for the same peer into one packet, up to the driver's eager packet
limit — the "copy the segments into a contiguous memory area and send
them as a single chunk" behaviour whose memcpy overhead the paper measures
to be very low (the copy is charged at host memcpy bandwidth when the
packet is posted).  It never waits for more data to arrive.

``greedy`` (§3.2 / Figs 4-5) is the same FIFO with no rail pinned: "each
time a NIC becomes idle, the strategy code is invoked and simply sends the
first available segment (if any) on the corresponding network".  The pump
consults drivers fastest first and takes at most one wrapper per driver
per sweep, so consecutive segments land on *different* NICs — a
2-segment message goes "simultaneously over separate networks".  Without
aggregation, small segments ride one eager packet each (both PIO copies
serialize on the CPU, so it pays off only above the PIO threshold).  It
takes no options: a pinned greedy is ``single_rail``.

All three send pending control first, then the queue head: eagerly when it
fits the consulted driver, else as a one-chunk rendezvous on that driver
once its DMA engine is free.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Union

from ...util.errors import StrategyError
from ..packet import PacketWrapper
from ..request import SendRequest
from .base import NO_SEGMENTS, Strategy

if TYPE_CHECKING:  # pragma: no cover
    from ...drivers.base import Driver
    from ..scheduler import NodeEngine

__all__ = ["SingleRailStrategy", "AggregStrategy", "GreedyStrategy"]


class SingleRailStrategy(Strategy):
    """FIFO on one pinned rail; no aggregation, no balancing."""

    name = "single_rail"
    #: subclasses flip this to enable opportunistic aggregation.
    aggregate = False

    def __init__(self, rail: Union[str, int, None] = None):
        super().__init__()
        if isinstance(rail, bool):  # an int to isinstance, but no rail
            raise StrategyError(f"rail must be a rail name or index, not {rail!r}")
        self._rail_opt = rail
        #: the pinned rail; None consults every rail (``greedy``).
        self._rail_index: Optional[int] = None
        self._queue: Deque[SendRequest] = NO_SEGMENTS

    # ------------------------------------------------------------------ #
    def bind(self, engine: "NodeEngine") -> None:
        super().bind(engine)
        opt = self._rail_opt
        if opt is None:
            self._rail_index = 0
        elif isinstance(opt, int):
            if not 0 <= opt < engine.platform.n_rails:
                raise StrategyError(f"rail index {opt} out of range")
            self._rail_index = opt
        else:
            self._rail_index = engine.platform.spec.rail_index(opt)

    @property
    def rail_index(self) -> int:
        if self._rail_index is None:
            raise StrategyError(f"strategy {self.name} is not bound to a rail")
        return self._rail_index

    # ------------------------------------------------------------------ #
    def pack(self, engine: "NodeEngine", request: SendRequest) -> None:
        if self._queue is NO_SEGMENTS:
            self._queue = deque()
        self._queue.append(request)
        self.quiet = False

    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        if not (self._ctrl_pending or self._queue):
            self.quiet = True
            return None
        pin = self._rail_index
        if pin is not None and driver.rail_index != pin:
            return None
        if self._ctrl_pending:
            return self.commit_ctrl(engine, driver)
        request = self._queue[0]
        size = request.payload.size
        if driver.eager_eligible(size):
            pw = driver.new_wrapper(request.peer)
            if self.aggregate:
                self.fill_with_eager(pw, driver, self._queue)
            else:
                self._queue.popleft()
                self.append_segment(pw, request)
            return pw
        if driver.dma_idle:
            self._queue.popleft()
            return self.commit_rdv(engine, driver, request, [(driver.rail_index, 0, size)])
        # Large segment, DMA engine still busy: wait to be consulted again.
        return None

    @property
    def backlog(self) -> int:
        return len(self._queue)


class AggregStrategy(SingleRailStrategy):
    """Single rail + opportunistic aggregation of small segments."""

    name = "aggreg"
    aggregate = True


class GreedyStrategy(SingleRailStrategy):
    """First idle NIC takes the first queued segment."""

    name = "greedy"

    def __init__(self) -> None:
        super().__init__()

    def bind(self, engine: "NodeEngine") -> None:
        Strategy.bind(self, engine)  # no rail pinned
