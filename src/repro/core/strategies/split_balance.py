"""The final strategy: aggregation + adaptive packet stripping
(§3.4 / Fig 7 and the summary at the end of §3.4).

"One clever balancing strategy over Myri-10G and Quadrics is to massively
aggregate the small messages, to favor the sending of the resulting
message over Quadrics, to split the large ones following some previously
processing ratios when both NICs are available and if not, to send them
over the first free one."

Behaviour:

* **small** segments — aggregated onto the lowest-latency rail: the
  queues, the size cut, ``pack`` and ``try_and_commit`` are inherited from
  :class:`~repro.core.strategies.aggreg_multirail.AggregMultirailStrategy`;
  this class only answers its ``large_chunks`` hook;
* **large** segments — when several DMA engines are idle, the segment is
  *stripped* into per-rail chunks sized by the sampling-derived bandwidth
  ratios (``ratio_mode="sampled"``), by a forced 50/50 split
  (``ratio_mode="iso"``, the Fig 7 baseline) or by spec bandwidths
  (``ratio_mode="spec"``, the no-sampling fallback);
* the **adaptive threshold**: with ``split_decision="adaptive"`` the
  strategy strips only when the fitted models predict the stripped
  completion beats the best single rail — chunks must be worth their DMA
  setup ("large enough in order to avoid the transfer of the different
  chunks with a PIO operation").  A fixed byte threshold can be forced
  instead (ablations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from ...util.errors import StrategyError
from ..request import SendRequest
from .aggreg_multirail import AggregMultirailStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ...drivers.base import Driver
    from ..sampling import SampleTable
    from ..scheduler import NodeEngine

__all__ = ["MIN_CHUNK", "SplitBalanceStrategy"]

_RATIO_MODES = ("sampled", "iso", "spec")

#: smallest chunk a split may give a rail: below it, the chunk's DMA setup
#: costs more than it saves, so the segment goes whole.
MIN_CHUNK = 8192


class SplitBalanceStrategy(AggregMultirailStrategy):
    """Aggregate small on fastest rail; strip large across idle rails."""

    name = "split_balance"

    def __init__(
        self,
        ratio_mode: str = "sampled",
        split_decision: Union[str, int] = "adaptive",
    ):
        super().__init__()
        if ratio_mode not in _RATIO_MODES:
            raise StrategyError(f"ratio_mode must be one of {_RATIO_MODES}")
        # a bool is an int to isinstance, but no byte count
        if isinstance(split_decision, int) and not isinstance(split_decision, bool):
            if split_decision <= 0:
                raise StrategyError("fixed split threshold must be positive")
        elif split_decision != "adaptive":
            raise StrategyError(
                f"split_decision must be 'adaptive' or a byte count, not {split_decision!r}"
            )
        self.ratio_mode = ratio_mode
        self.split_decision = split_decision

    # ------------------------------------------------------------------ #
    def bind(self, engine: "NodeEngine") -> None:
        super().bind(engine)
        if self.ratio_mode == "sampled" and engine.session.samples is None:
            # Degrade explicitly rather than silently mis-split.
            self.ratio_mode = "spec"

    # -- transfer-time model ------------------------------------------------
    def _model(self, engine: "NodeEngine", driver: "Driver") -> tuple[float, float]:
        """(overhead_us, bw_MBps) for one rail, sampled or from spec."""
        table: Optional["SampleTable"] = engine.session.samples
        if self.ratio_mode != "spec" and table is not None and driver.name in table:
            s = table.get(driver.name)
            return s.overhead_us, s.bw_MBps
        spec = driver.spec
        # crude analytic stand-in: handshake RTT + DMA setup + propagation
        overhead = spec.rdv_setup_us + 3.0 * spec.lat_us + 2.0 * (
            spec.post_cost_us + spec.handle_cost_us
        )
        return overhead, spec.bw_MBps

    def _predict_whole(self, engine: "NodeEngine", driver: "Driver", size: int) -> float:
        o, b = self._model(engine, driver)
        return o + size / b

    # -- chunk planning ------------------------------------------------------
    def _plan_chunks(
        self, engine: "NodeEngine", idle: Sequence["Driver"], size: int
    ) -> Optional[list[tuple[int, int, int]]]:
        """Return ``[(rail_index, offset, length), ...]`` or None (no split).

        Applies the ratio mode, the min-chunk constraint and the split
        decision rule; None means "send whole on the best idle rail".
        """
        if len(idle) < 2:
            return None
        drivers = list(idle)
        if self.ratio_mode == "iso":
            weights = [1.0] * len(drivers)
        else:
            weights = [self._model(engine, d)[1] for d in drivers]
        total_w = sum(weights)
        lengths = [int(size * w / total_w) for w in weights]
        # largest-remainder correction so lengths sum to size
        remainder = size - sum(lengths)
        fracs = sorted(
            range(len(drivers)),
            key=lambda i: (size * weights[i] / total_w) - lengths[i],
            reverse=True,
        )
        for i in range(remainder):
            lengths[fracs[i % len(drivers)]] += 1
        if any(ln < MIN_CHUNK for ln in lengths):
            return None
        # split decision
        if isinstance(self.split_decision, int):
            if size < self.split_decision:
                return None
        else:
            t_whole = min(self._predict_whole(engine, d, size) for d in drivers)
            t_split = max(
                self._model(engine, d)[0] + ln / self._model(engine, d)[1]
                for d, ln in zip(drivers, lengths)
            )
            if t_split >= t_whole:
                return None
        chunks: list[tuple[int, int, int]] = []
        offset = 0
        for d, ln in zip(drivers, lengths):
            chunks.append((d.rail_index, offset, ln))
            offset += ln
        return chunks

    # -- the large-segment policy -------------------------------------------
    def large_chunks(
        self, engine: "NodeEngine", driver: "Driver", request: SendRequest
    ) -> list[tuple[int, int, int]]:
        # never empty: the consulted driver is usable and DMA-idle
        idle = [d for d in engine.drivers if d.dma_idle and d.usable]
        # A backlog of large segments already parallelizes across rails
        # greedily (one whole segment per idle NIC); stripping the head
        # would hog every DMA engine and starve the rest.
        size = request.payload.size
        if len(self._large) == 1:
            chunks = self._plan_chunks(engine, idle, size)
            if chunks is not None:
                return chunks
        if len(idle) == 1:  # nothing to choose between
            return [(idle[0].rail_index, 0, size)]
        best = min(idle, key=lambda d: self._predict_whole(engine, d, size))
        return [(best.rail_index, 0, size)]
