"""Runtime-adaptive strategies: feedback control + tournament meta-strategy.

The paper samples rail bandwidth ratios once at init (`repro.core.sampling`)
and never revisits them; the fault layer closes that loop only on *detected*
degrades by re-running the full sampling sweep.  This module generalizes
both into a first-class strategy family driven by **completion
observations**: whenever a PIO post or a DMA chunk finishes, the driver
calls :meth:`~repro.core.strategies.base.Strategy.observe` on the node's
strategy (see ``Driver.observer``), reporting the rail, the byte count and
the ``[start_us, end_us]`` simulated interval.

Two strategies consume that stream, as policy over the ladder: the
measured-model :class:`FeedbackStrategy` and the candidate race
:class:`TournamentStrategy`.  They share an :class:`EpochClock` (fixed
:data:`EPOCH_US` epochs on the sim clock) and :func:`ewma`; neither
takes an option — the module constants below are the only values any
caller ever used.

Determinism: all state lives on the sim clock and epochs advance *lazily*
on the pack/observe/commit entry points — no self-scheduled timers, so
``run_until_idle`` termination and event digests are untouched, and a
parallel chaos sweep stays bit-identical to a serial one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..packet import PacketWrapper
from ..request import SendRequest
from .base import Strategy
from .split_balance import SplitBalanceStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ...drivers.base import Driver
    from ...obs.metrics import MetricsRegistry
    from ..scheduler import NodeEngine

__all__ = [
    "EPOCH_US",
    "FEEDBACK_ALPHA",
    "SCORE_ALPHA",
    "HYSTERESIS",
    "CANDIDATES",
    "ewma",
    "EpochClock",
    "RailEstimator",
    "FeedbackStrategy",
    "TournamentStrategy",
]

#: adaptation epoch length; a few pump sweeps long on the paper platform,
#: short enough to track a mid-run degrade within a handful of transfers.
EPOCH_US = 250.0

#: weight of a new DMA observation in a rail's bandwidth estimate.
FEEDBACK_ALPHA = 0.25

#: weight of a finished epoch's goodput in a tournament candidate's score.
SCORE_ALPHA = 0.5

#: a challenger dethrones the incumbent only past this relative margin.
HYSTERESIS = 0.1

#: the tournament's bracket, by registry name, in tie-breaking order.
CANDIDATES = ("aggreg_multirail", "split_balance", "feedback")


def ewma(prev: Optional[float], value: float, alpha: float) -> float:
    """Exponentially weighted moving average, initialized to the first value.

    Every result is a convex combination of the values folded in, so it
    never leaves their ``[min, max]`` window — the property suite fuzzes
    exactly that law.
    """
    return value if prev is None else alpha * value + (1.0 - alpha) * prev


class EpochClock:
    """Fixed :data:`EPOCH_US` epochs on the sim clock, turned lazily.

    :meth:`turn` is called from the strategy's entry points with the
    current sim time; for each boundary crossed it calls ``close`` (the
    epoch being closed is still :attr:`index`), then moves on, and counts
    the epochs into ``adaptive.epochs``.
    """

    __slots__ = ("index", "start", "close", "_m_epochs")

    def __init__(self, close: Callable[[], None]):
        self.index = 0
        self.start = 0.0
        self.close = close
        self._m_epochs = None

    def bind(self, metrics: "MetricsRegistry") -> None:
        self._m_epochs = metrics.counter("adaptive.epochs")

    def turn(self, now: float) -> None:
        while now - self.start >= EPOCH_US:
            self.close()
            self.start += EPOCH_US
            self.index += 1
            if self._m_epochs is not None:
                self._m_epochs.add()


class RailEstimator:
    """One rail's record in :class:`FeedbackStrategy`.

    ``bw_MBps`` is the EWMA of the rail's DMA goodput (bytes/us ≡ MB/s in
    flow units); PIO observations are counted but not folded in — PIO
    throughput is a CPU property, mixing it into the link estimate would
    corrupt the DMA split.  ``model`` is the ``(overhead_us, bw_MBps)``
    served to the split planner this epoch: the spec-analytic ``spec``
    until an epoch boundary follows a DMA observation, then the spec
    overhead (contention folds into measured goodput; overhead stays
    analytic) with the bandwidth frozen at that boundary.
    """

    __slots__ = ("spec", "model", "bw_MBps", "m_obs", "m_ratio", "m_bw")

    def __init__(self, spec: tuple[float, float], metrics: "MetricsRegistry", rail: str):
        self.spec = self.model = spec
        self.bw_MBps: Optional[float] = None
        self.m_obs = metrics.counter("adaptive.observations", rail=rail)
        self.m_ratio = metrics.gauge("adaptive.ratio", rail=rail)
        self.m_bw = metrics.gauge("adaptive.bw_est_MBps", rail=rail)

    def observe(self, kind: str, nbytes: int, elapsed_us: float) -> None:
        if kind == "dma":
            self.bw_MBps = ewma(self.bw_MBps, nbytes / elapsed_us, FEEDBACK_ALPHA)
        self.m_obs.add()


class FeedbackStrategy(SplitBalanceStrategy):
    """Split-balance driven by measured, epoch-frozen rail bandwidths.

    The inherited machinery (small-message aggregation on the fastest
    rail, chunk planning, the adaptive split-vs-whole threshold) is kept;
    only the transfer-time model changes: instead of the one-shot
    ``sample_rails`` table, :meth:`_model` serves each rail's
    :class:`RailEstimator` model.  Because the aggregation threshold
    decision (``t_split >= t_whole``) runs through the same model, it
    re-derives continuously too.

    A session running this strategy needs no ``samples=`` table, and the
    fault injector's detected-degrade resampling provably never fires for
    it (``FaultInjector._resample`` is skipped when ``session.samples is
    None``) — re-adaptation is purely observation-driven.
    """

    name = "feedback"
    wants_observations = True

    def __init__(self) -> None:
        # ratio_mode="spec" keeps the parent off the sample table entirely;
        # the rail records overlay the measured estimates on top.
        super().__init__(ratio_mode="spec")
        self._clock = EpochClock(self._freeze)
        #: one record per rail, by rail index (filled at bind).
        self._rails: list[RailEstimator] = []

    def bind(self, engine: "NodeEngine") -> None:
        super().bind(engine)
        metrics = engine.session.metrics
        # adaptive.* instruments resolve here, not at session construction:
        # a session running a static strategy registers none of them.
        self._clock.bind(metrics)
        self._rails = [
            RailEstimator(SplitBalanceStrategy._model(self, engine, d), metrics, d.name)
            for d in engine.drivers
        ]
        self._freeze()

    def _freeze(self) -> None:
        """Serve the bandwidths measured so far, and publish their ratios."""
        for rail in self._rails:
            if rail.bw_MBps is not None:
                rail.model = (rail.spec[0], rail.bw_MBps)
        for rail, ratio in zip(self._rails, self.current_ratios()):
            rail.m_ratio.set(ratio)
            if rail.bw_MBps is not None:
                rail.m_bw.set(rail.bw_MBps)

    def epoch_index(self) -> int:
        return self._clock.index

    def current_ratios(self) -> tuple[float, ...]:
        """Normalized per-rail split weights of the current epoch.

        Sorted by rail index; non-negative and summing to 1 — invariants
        the property suite asserts, and constant within one epoch — the
        invariant the contract checker enforces.
        """
        weights = [rail.model[1] for rail in self._rails]
        total = sum(weights)
        return tuple(w / total for w in weights)

    def observe(
        self, rail_index: int, kind: str, nbytes: int, start_us: float, end_us: float
    ) -> None:
        self._clock.turn(end_us)
        elapsed = end_us - start_us
        if rail_index < len(self._rails) and nbytes > 0 and elapsed > 0.0:
            self._rails[rail_index].observe(kind, nbytes, elapsed)

    def _model(self, engine: "NodeEngine", driver: "Driver") -> tuple[float, float]:
        return self._rails[driver.rail_index].model

    # -- engine entry points: lazy epoch advancement -----------------------
    def pack(self, engine: "NodeEngine", request: SendRequest) -> None:
        self._clock.turn(engine.sim.now)
        super().pack(engine, request)

    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        self._clock.turn(engine.sim.now)
        pw = super().try_and_commit(engine, driver)
        # a consultation also turns the epoch clock: never skip one
        self.quiet = self.dma_bound = False
        return pw


class TournamentStrategy(Strategy):
    """Meta-strategy: race the :data:`CANDIDATES` per epoch, keep the winner.

    Scoring: every completion observation's bytes are credited to the
    epoch they drain in; at each epoch boundary the active candidate's
    EWMA goodput score absorbs the finished epoch (epochs with zero
    observed bytes are not scored — an idle phase says nothing about the
    candidate).  While any candidate is still unscored the tournament
    probes them in registration order; afterwards it switches away from
    the incumbent only when the best challenger's score exceeds the
    incumbent's by the :data:`HYSTERESIS` factor, ties broken
    deterministically by registration order.

    Routing: fresh segments pack into the active candidate; on commit the
    active candidate is consulted first, then any other candidate still
    holding a backlog (so a switch never strands segments queued under the
    previous phase's winner).  Control entries are owned by the tournament
    itself — ``engine.post_ctrl`` lands in *this* strategy's queue and is
    emitted before any candidate is consulted, like every other strategy.
    """

    name = "tournament"
    wants_observations = True

    def __init__(self) -> None:
        super().__init__()
        # lazy import: the registry imports this module to register us.
        from .registry import make_strategy

        self._candidates = [make_strategy(c) for c in CANDIDATES]
        self._active = 0
        self._scores: list[Optional[float]] = [None] * len(self._candidates)
        self._clock = EpochClock(self._close_epoch)
        self._epoch_bytes = 0
        #: switch history: (epoch, from_name, to_name, reason) — "trial"
        #: while probing unscored candidates, "exploit" afterwards.
        self.switches: list[tuple[int, str, str, str]] = []
        self._m_switches = self._m_active = None

    def bind(self, engine: "NodeEngine") -> None:
        super().bind(engine)
        for c in self._candidates:
            c.bind(engine)
        metrics = engine.session.metrics
        self._clock.bind(metrics)
        self._m_switches = metrics.counter("adaptive.switches")
        self._m_active = metrics.gauge("adaptive.active_strategy")
        self._m_active.set(self._active)

    @property
    def active_strategy(self) -> Strategy:
        return self._candidates[self._active]

    def epoch_index(self) -> tuple[int, int, object]:
        """Composite epoch id: changes whenever anything ratio-affecting
        may legally change — the tournament's own epoch, the active
        candidate, and the active candidate's sub-epoch (a bound feedback
        candidate refreezes on its own clock)."""
        return (self._clock.index, self._active, self.active_strategy.epoch_index())

    def current_ratios(self) -> Optional[tuple[float, ...]]:
        return self.active_strategy.current_ratios()

    def _close_epoch(self) -> None:
        if self._epoch_bytes > 0:
            self._scores[self._active] = ewma(
                self._scores[self._active], self._epoch_bytes / EPOCH_US, SCORE_ALPHA
            )
            self._epoch_bytes = 0
        self._select_active()

    def _select_active(self) -> None:
        """Next epoch's candidate: probe unscored first, then exploit."""
        scores = self._scores
        if scores[self._active] is None:
            return  # keep probing the current candidate until it scores
        for i, s in enumerate(scores):
            if s is None:
                self._switch_to(i, "trial")
                return
        best = max(range(len(scores)), key=lambda i: (scores[i], -i))
        if best != self._active and scores[best] > scores[self._active] * (1.0 + HYSTERESIS):
            self._switch_to(best, "exploit")

    def _switch_to(self, idx: int, reason: str) -> None:
        self.switches.append(
            (self._clock.index, self._candidates[self._active].name,
             self._candidates[idx].name, reason)
        )
        self._active = idx
        if self._m_switches is not None:
            self._m_switches.add()
            self._m_active.set(idx)

    # -- observation sink --------------------------------------------------
    def observe(
        self, rail_index: int, kind: str, nbytes: int, start_us: float, end_us: float
    ) -> None:
        self._clock.turn(end_us)
        if nbytes > 0 and end_us >= start_us:
            self._epoch_bytes += int(nbytes)
        # every observing candidate stays warm, active or not, so a
        # feedback candidate switched in mid-run starts from measured
        # estimates instead of cold spec numbers.
        for c in self._candidates:
            if c.wants_observations:
                c.observe(rail_index, kind, nbytes, start_us, end_us)

    # -- engine entry points -----------------------------------------------
    def pack(self, engine: "NodeEngine", request: SendRequest) -> None:
        self._clock.turn(engine.sim.now)
        self.active_strategy.pack(engine, request)

    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        self._clock.turn(engine.sim.now)
        pw = self.commit_ctrl(engine, driver)
        if pw is not None:
            return pw
        active = self.active_strategy
        pw = active.try_and_commit(engine, driver)
        for c in self._candidates:
            if pw is None and c is not active and c.backlog:
                pw = c.try_and_commit(engine, driver)
        return pw

    @property
    def backlog(self) -> int:
        return self._ctrl_pending + sum(c.backlog for c in self._candidates)
