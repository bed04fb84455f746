"""Runtime-adaptive strategies: feedback control + tournament meta-strategy.

The paper samples rail bandwidth ratios once at init (`repro.core.sampling`)
and never revisits them; the fault layer closes that loop only on *detected*
degrades by re-running the full sampling sweep.  This module generalizes
both into a first-class strategy family driven by **completion
observations**: whenever a PIO post or a DMA chunk finishes, the driver
calls :meth:`~repro.core.strategies.base.Strategy.observe` on the node's
strategy (see ``Driver.observer``), reporting the rail, the byte count and
the ``[start_us, end_us]`` simulated interval.

Two strategies consume that stream:

* :class:`FeedbackStrategy` — a :class:`SplitBalanceStrategy` whose
  transfer-time model is fed by per-rail EWMA bandwidth estimators instead
  of a one-shot sample table.  Estimates are *frozen per epoch*: decisions
  inside one epoch all see the same model, so split ratios only change at
  epoch boundaries (an invariant
  :class:`~repro.core.strategies.checker.CheckedStrategy` enforces).
* :class:`TournamentStrategy` — a meta-strategy racing registered
  strategies per workload phase: each epoch's goodput is credited to the
  candidate that was active, unscored candidates are probed round-robin,
  and thereafter the incumbent is only dethroned when a challenger's score
  beats it by a hysteresis margin (deterministic tie-breaking by
  registration order).

Determinism: all state lives on the sim clock and epochs advance *lazily*
on the pack/observe/commit entry points — no self-scheduled timers, so
``run_until_idle`` termination and event digests are untouched, and a
parallel chaos sweep stays bit-identical to a serial one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from ...util.errors import StrategyError
from ..packet import PacketWrapper
from ..request import SendRequest
from .base import Strategy
from .split_balance import SplitBalanceStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ...drivers.base import Driver
    from ..scheduler import NodeEngine

__all__ = [
    "DEFAULT_EPOCH_US",
    "DEFAULT_CANDIDATES",
    "RailEstimator",
    "FeedbackStrategy",
    "TournamentStrategy",
]

#: adaptation epoch length; a few pump sweeps long on the paper platform,
#: short enough to track a mid-run degrade within a handful of transfers.
DEFAULT_EPOCH_US = 250.0

#: the tournament's default bracket ("tournament" itself is rejected).
DEFAULT_CANDIDATES = ("aggreg_multirail", "split_balance", "feedback")


class RailEstimator:
    """EWMA window over one rail's completed-transfer observations.

    ``bw_MBps`` tracks DMA goodput (bytes/us ≡ MB/s in flow units) and is
    what feeds the split ratios; ``pio_MBps`` tracks the eager path
    separately (PIO throughput is a CPU property, mixing it into the link
    estimate would corrupt the DMA split).  The estimate is initialized to
    the first observation, so it always stays inside the observed
    ``[bw_min, bw_max]`` window — the property suite fuzzes exactly that
    invariant.
    """

    __slots__ = (
        "alpha", "bw_MBps", "bw_min", "bw_max", "pio_MBps",
        "n_obs", "n_pio_obs", "last_end_us",
    )

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise StrategyError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.bw_MBps: Optional[float] = None
        self.bw_min: Optional[float] = None
        self.bw_max: Optional[float] = None
        self.pio_MBps: Optional[float] = None
        self.n_obs = 0
        self.n_pio_obs = 0
        self.last_end_us = 0.0

    def _ewma(self, prev: Optional[float], value: float) -> float:
        return value if prev is None else self.alpha * value + (1.0 - self.alpha) * prev

    def observe(self, kind: str, nbytes: int, elapsed_us: float) -> float:
        """Fold one completed transfer in; returns the observed MB/s."""
        rate = nbytes / elapsed_us
        if kind == "dma":
            self.bw_MBps = self._ewma(self.bw_MBps, rate)
            self.bw_min = rate if self.bw_min is None else min(self.bw_min, rate)
            self.bw_max = rate if self.bw_max is None else max(self.bw_max, rate)
            self.n_obs += 1
        else:
            self.pio_MBps = self._ewma(self.pio_MBps, rate)
            self.n_pio_obs += 1
        return rate

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RailEstimator n={self.n_obs} bw={self.bw_MBps}>"


class FeedbackStrategy(SplitBalanceStrategy):
    """Split-balance driven by measured, epoch-frozen rail bandwidths.

    The inherited machinery (small-message aggregation on the fastest
    rail, chunk planning, the adaptive split-vs-whole threshold) is kept;
    only the transfer-time model changes: instead of the one-shot
    ``sample_rails`` table, :meth:`_model` serves the bandwidth the EWMA
    estimators *measured* — frozen at the last epoch boundary — and falls
    back to the spec-analytic model for rails never observed.  Because the
    aggregation threshold decision (``t_split >= t_whole``) runs through
    the same model, it re-derives continuously too.

    A session running this strategy needs no ``samples=`` table, and the
    fault injector's detected-degrade resampling provably never fires for
    it (``FaultInjector._resample`` is skipped when ``session.samples is
    None``) — re-adaptation is purely observation-driven.
    """

    name = "feedback"
    wants_observations = True

    def __init__(
        self,
        epoch_us: float = DEFAULT_EPOCH_US,
        alpha: float = 0.25,
        split_decision: Any = "adaptive",
        min_chunk: int = 8192,
    ):
        # ratio_mode="spec" keeps the parent off the sample table entirely;
        # _model below overlays the measured estimates on top.
        super().__init__(
            ratio_mode="spec", split_decision=split_decision, min_chunk=min_chunk
        )
        if epoch_us <= 0.0:
            raise StrategyError(f"epoch_us must be positive, got {epoch_us}")
        if not 0.0 < alpha <= 1.0:
            raise StrategyError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.epoch_us = float(epoch_us)
        self.alpha = float(alpha)
        self._est: dict[int, RailEstimator] = {}
        #: spec-analytic (overhead_us, bw_MBps) per rail — the cold-start
        #: model and the permanent source of the overhead term (contention
        #: folds into measured goodput; overhead stays analytic).
        self._spec_model: dict[int, tuple[float, float]] = {}
        #: epoch-frozen (overhead_us, bw_MBps) per observed rail.
        self._frozen: dict[int, tuple[float, float]] = {}
        self._epoch = 0
        self._epoch_start = 0.0
        self.refreezes = 0
        self._m_epochs = None
        self._m_obs: dict[int, Any] = {}
        self._m_ratio: dict[int, Any] = {}
        self._m_bw: dict[int, Any] = {}

    # ------------------------------------------------------------------ #
    def bind(self, engine: "NodeEngine") -> None:
        super().bind(engine)
        metrics = engine.session.metrics
        # adaptive.* instruments resolve here, not at session construction:
        # a session running a static strategy registers none of them.
        self._m_epochs = metrics.counter("adaptive.epochs")
        for d in engine.drivers:
            self._est[d.rail_index] = RailEstimator(self.alpha)
            self._spec_model[d.rail_index] = SplitBalanceStrategy._model(
                self, engine, d
            )
            self._m_obs[d.rail_index] = metrics.counter(
                "adaptive.observations", rail=d.name
            )
            self._m_ratio[d.rail_index] = metrics.gauge("adaptive.ratio", rail=d.name)
            self._m_bw[d.rail_index] = metrics.gauge(
                "adaptive.bw_est_MBps", rail=d.name
            )
        self._publish_ratios()

    # -- epoch machinery ---------------------------------------------------
    def epoch_index(self) -> int:
        return self._epoch

    def _advance_epochs(self, now: float) -> None:
        advanced = 0
        while now - self._epoch_start >= self.epoch_us:
            self._epoch_start += self.epoch_us
            self._epoch += 1
            advanced += 1
        if advanced:
            self._refreeze()
            if self._m_epochs is not None:
                self._m_epochs.add(advanced)

    def _refreeze(self) -> None:
        """Snapshot the estimators into the model served this epoch."""
        for idx in sorted(self._est):
            est = self._est[idx]
            if est.bw_MBps is not None:
                self._frozen[idx] = (self._spec_model[idx][0], est.bw_MBps)
        self.refreezes += 1
        self._publish_ratios()

    def _publish_ratios(self) -> None:
        if not self._m_ratio:
            return
        for idx, ratio in zip(sorted(self._spec_model), self.current_ratios()):
            self._m_ratio[idx].set(ratio)
            est = self._est[idx]
            if est.bw_MBps is not None:
                self._m_bw[idx].set(est.bw_MBps)

    def current_ratios(self) -> tuple[float, ...]:
        """Normalized per-rail split weights of the current epoch.

        Sorted by rail index; non-negative and summing to 1 — invariants
        the property suite asserts, and constant within one epoch — the
        invariant the contract checker enforces.
        """
        weights = [
            self._frozen.get(idx, self._spec_model[idx])[1]
            for idx in sorted(self._spec_model)
        ]
        total = sum(weights)
        if total <= 0.0:  # pragma: no cover - bandwidths are positive
            return tuple(1.0 / len(weights) for _ in weights)
        return tuple(w / total for w in weights)

    # -- observation sink --------------------------------------------------
    def observe(
        self, rail_index: int, kind: str, nbytes: int, start_us: float, end_us: float
    ) -> None:
        self._advance_epochs(end_us)
        est = self._est.get(rail_index)
        elapsed = end_us - start_us
        if est is None or nbytes <= 0 or elapsed <= 0.0:
            return
        est.observe(kind, nbytes, elapsed)
        est.last_end_us = end_us
        counter = self._m_obs.get(rail_index)
        if counter is not None:
            counter.add()

    # -- model override: measured beats analytic ---------------------------
    def _model(self, engine: "NodeEngine", driver: "Driver") -> tuple[float, float]:
        frozen = self._frozen.get(driver.rail_index)
        if frozen is not None:
            return frozen
        spec = self._spec_model.get(driver.rail_index)
        if spec is not None:
            return spec
        return super()._model(engine, driver)  # pragma: no cover - pre-bind

    # -- engine entry points: lazy epoch advancement -----------------------
    def pack(self, engine: "NodeEngine", request: SendRequest) -> None:
        self._advance_epochs(engine.sim.now)
        super().pack(engine, request)

    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        self._advance_epochs(engine.sim.now)
        pw = super().try_and_commit(engine, driver)
        # a consultation also turns the epoch clock: never skip one
        self.quiet = self.dma_bound = False
        return pw


class TournamentStrategy(Strategy):
    """Meta-strategy: race candidate strategies per epoch, keep the winner.

    Scoring: every completion observation's bytes are credited to the
    epoch they drain in; at each epoch boundary the active candidate's
    EWMA goodput score absorbs the finished epoch (epochs with zero
    observed bytes are not scored — an idle phase says nothing about the
    candidate).  While any candidate is still unscored the tournament
    probes them in registration order; afterwards it switches away from
    the incumbent only when the best challenger's score exceeds the
    incumbent's by the ``hysteresis`` factor, ties broken deterministically
    by registration order.

    Routing: fresh segments pack into the active candidate; on commit the
    active candidate is consulted first, then any other candidate still
    holding a backlog (so a switch never strands segments queued under the
    previous phase's winner).  Control entries are owned by the tournament
    itself — ``engine.post_ctrl`` lands in *this* strategy's queue and is
    emitted before any candidate is consulted, like every other strategy.
    """

    name = "tournament"
    wants_observations = True

    def __init__(
        self,
        candidates: Sequence[Any] = DEFAULT_CANDIDATES,
        epoch_us: float = DEFAULT_EPOCH_US,
        hysteresis: float = 0.1,
        alpha: float = 0.5,
    ):
        super().__init__()
        # lazy import: the registry imports this module to register us.
        from .registry import make_strategy

        if epoch_us <= 0.0:
            raise StrategyError(f"epoch_us must be positive, got {epoch_us}")
        if hysteresis < 0.0:
            raise StrategyError(f"hysteresis must be >= 0, got {hysteresis}")
        if not 0.0 < alpha <= 1.0:
            raise StrategyError(f"EWMA alpha must be in (0, 1], got {alpha}")
        built = [make_strategy(c) for c in candidates]
        if not built:
            raise StrategyError("tournament needs at least one candidate")
        names = [c.name for c in built]
        if len(set(names)) != len(names):
            raise StrategyError(f"duplicate tournament candidates: {names}")
        for c in built:
            if isinstance(c, TournamentStrategy):
                raise StrategyError("a tournament cannot race itself")
        self._candidates = built
        self.epoch_us = float(epoch_us)
        self.hysteresis = float(hysteresis)
        self.alpha = float(alpha)
        self._active = 0
        self._scores: list[Optional[float]] = [None] * len(built)
        self._epoch = 0
        self._epoch_start = 0.0
        self._epoch_bytes = 0
        #: switch history: (epoch, from_name, to_name, reason) — "trial"
        #: while probing unscored candidates, "exploit" afterwards.
        self.switches: list[tuple[int, str, str, str]] = []
        self._m_epochs = None
        self._m_switches = None
        self._m_active = None

    # ------------------------------------------------------------------ #
    def bind(self, engine: "NodeEngine") -> None:
        super().bind(engine)
        for c in self._candidates:
            c.bind(engine)
        metrics = engine.session.metrics
        self._m_epochs = metrics.counter("adaptive.epochs")
        self._m_switches = metrics.counter("adaptive.switches")
        self._m_active = metrics.gauge("adaptive.active_strategy")
        self._m_active.set(self._active)

    @property
    def active_strategy(self) -> Strategy:
        return self._candidates[self._active]

    def scores(self) -> dict[str, Optional[float]]:
        return {c.name: s for c, s in zip(self._candidates, self._scores)}

    # -- epoch machinery ---------------------------------------------------
    def epoch_index(self) -> tuple[int, int, Any]:
        """Composite epoch id: changes whenever anything ratio-affecting
        may legally change — the tournament's own epoch, the active
        candidate, and the active candidate's sub-epoch (a bound feedback
        candidate refreezes on its own clock)."""
        active = self.active_strategy
        sub = active.epoch_index() if hasattr(active, "epoch_index") else None
        return (self._epoch, self._active, sub)

    def current_ratios(self) -> Optional[tuple[float, ...]]:
        active = self.active_strategy
        if hasattr(active, "current_ratios"):
            return active.current_ratios()
        return None

    def _advance_epochs(self, now: float) -> None:
        while now - self._epoch_start >= self.epoch_us:
            self._close_epoch()
            self._epoch_start += self.epoch_us
            self._epoch += 1
            if self._m_epochs is not None:
                self._m_epochs.add()

    def _close_epoch(self) -> None:
        if self._epoch_bytes > 0:
            goodput = self._epoch_bytes / self.epoch_us
            prev = self._scores[self._active]
            self._scores[self._active] = (
                goodput
                if prev is None
                else self.alpha * goodput + (1.0 - self.alpha) * prev
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
        if best != self._active and scores[best] > scores[self._active] * (
            1.0 + self.hysteresis
        ):
            self._switch_to(best, "exploit")

    def _switch_to(self, idx: int, reason: str) -> None:
        self.switches.append(
            (self._epoch, self._candidates[self._active].name,
             self._candidates[idx].name, reason)
        )
        self._active = idx
        if self._m_switches is not None:
            self._m_switches.add()
        if self._m_active is not None:
            self._m_active.set(idx)

    # -- observation sink --------------------------------------------------
    def observe(
        self, rail_index: int, kind: str, nbytes: int, start_us: float, end_us: float
    ) -> None:
        self._advance_epochs(end_us)
        if nbytes > 0 and end_us >= start_us:
            self._epoch_bytes += int(nbytes)
        # every observing candidate stays warm, active or not, so a
        # feedback candidate switched in mid-run starts from measured
        # estimates instead of cold spec numbers.
        for c in self._candidates:
            if getattr(c, "wants_observations", False):
                c.observe(rail_index, kind, nbytes, start_us, end_us)

    # -- engine entry points -----------------------------------------------
    def pack(self, engine: "NodeEngine", request: SendRequest) -> None:
        self._advance_epochs(engine.sim.now)
        self.active_strategy.pack(engine, request)

    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        self._advance_epochs(engine.sim.now)
        pw = self.commit_ctrl(engine, driver)
        if pw is not None:
            return pw
        order = [self._active] + [
            i
            for i in range(len(self._candidates))
            if i != self._active and self._candidates[i].backlog
        ]
        for i in order:
            pw = self._candidates[i].try_and_commit(engine, driver)
            if pw is not None:
                return pw
        return None

    @property
    def backlog(self) -> int:
        return self._ctrl_pending + sum(c.backlog for c in self._candidates)
