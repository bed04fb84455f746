"""Greedy multi-rail balancing (§3.2 / Figs 4-5).

"Each time a NIC becomes idle, the strategy code is invoked and simply
sends the first available segment (if any) on the corresponding network."

Implementation notes:

* the pump consults drivers one at a time (fastest rail first) and takes
  at most one wrapper per driver per sweep, so consecutive queued segments
  naturally land on *different* NICs — a 2-segment message is sent
  "simultaneously over separate networks";
* no aggregation: small segments ride one eager packet each (which is why
  this strategy only pays off above the PIO threshold — both PIO copies
  serialize on the CPU, exactly the effect the paper reports);
* a large segment is bound to the consulted driver if (and only if) that
  driver's DMA engine is free, as a single-chunk rendezvous.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from ..gate import Segment
from ..packet import PacketWrapper
from .base import NO_SEGMENTS, Strategy

if TYPE_CHECKING:  # pragma: no cover
    from ...drivers.base import Driver
    from ..scheduler import NodeEngine

__all__ = ["GreedyStrategy"]


class GreedyStrategy(Strategy):
    """First idle NIC takes the first queued segment."""

    name = "greedy"

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[Segment] = NO_SEGMENTS

    def pack(self, engine: "NodeEngine", segment: Segment) -> None:
        self.segments_packed += 1
        if self._queue is NO_SEGMENTS:
            self._queue = deque()
        self._queue.append(segment)
        self.quiet = False

    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        if self._ctrl_pending:
            pw = self.commit_ctrl(engine, driver)
            if pw is not None:
                return pw
        if not self._queue:
            self.quiet = not self._ctrl_pending
            return None
        seg = self._queue[0]
        if driver.eager_eligible(seg.size):
            self._queue.popleft()
            pw = self.make_pw(engine, seg.dst_node, driver)
            self.append_segment(pw, seg)
            self.packets_committed += 1
            return pw
        if driver.dma_idle:
            self._queue.popleft()
            req = engine.rdv.initiate(seg, [(driver.rail_index, 0, seg.size)])
            pw = self.make_pw(engine, seg.dst_node, driver)
            pw.add(req)
            self.packets_committed += 1
            return pw
        return None

    @property
    def backlog(self) -> int:
        return len(self._queue)
