"""Reference strategies pinned to one rail.

``single_rail`` produces the paper's "Regular messages" and per-network
reference curves: strict FIFO, one packet per segment, no optimization.
``aggreg`` (:mod:`repro.core.strategies.aggreg`) derives from it and turns
on opportunistic aggregation.

Both accept a ``rail`` option (name or index, default rail 0) selecting
which network to use; all other rails are still *polled* by the engine —
forcing a single rail does not remove the other NIC from the progress loop
(that is precisely the Fig 6 overhead).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Union

from ...util.errors import StrategyError
from ..gate import Segment
from ..packet import PacketWrapper
from .base import NO_SEGMENTS, Strategy

if TYPE_CHECKING:  # pragma: no cover
    from ...drivers.base import Driver
    from ..scheduler import NodeEngine

__all__ = ["SingleRailStrategy"]


class SingleRailStrategy(Strategy):
    """FIFO on one pinned rail; no aggregation, no balancing."""

    name = "single_rail"
    #: subclasses flip this to enable opportunistic aggregation.
    aggregate = False

    def __init__(self, rail: Union[str, int, None] = None):
        super().__init__()
        self._rail_opt = rail
        self._rail_index: Optional[int] = None
        self._queue: Deque[Segment] = NO_SEGMENTS

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
            raise StrategyError(f"strategy {self.name} not bound yet")
        return self._rail_index

    # ------------------------------------------------------------------ #
    def pack(self, engine: "NodeEngine", segment: Segment) -> None:
        self.segments_packed += 1
        if self._queue is NO_SEGMENTS:
            self._queue = deque()
        self._queue.append(segment)
        self.quiet = False

    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        if not (self._ctrl_pending or self._queue):
            self.quiet = True
            return None
        if driver.rail_index != self.rail_index:
            return None
        if self._ctrl_pending:
            pw = self.commit_ctrl(engine, driver)
            if pw is not None:
                return pw
        if not self._queue:
            return None
        seg = self._queue[0]
        if driver.eager_eligible(seg.size):
            pw = self.make_pw(engine, seg.dst_node, driver)
            if self.aggregate:
                self.fill_with_eager(pw, driver, self._queue)
            else:
                self._queue.popleft()
                self.append_segment(pw, seg)
            self.packets_committed += 1
            return pw
        if driver.dma_idle:
            self._queue.popleft()
            req = engine.rdv.initiate(seg, [(self.rail_index, 0, seg.size)])
            pw = self.make_pw(engine, seg.dst_node, driver)
            pw.add(req)
            self.packets_committed += 1
            return pw
        # Large segment, DMA engine still busy: wait to be consulted again.
        return None

    @property
    def backlog(self) -> int:
        return len(self._queue)
