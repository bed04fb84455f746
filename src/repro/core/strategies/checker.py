"""Contract checker for custom strategies.

NewMadeleine's selling point is that users plug in their own optimizing
schedulers; this module makes that safe in the reproduction.  Wrap any
strategy in :class:`CheckedStrategy` and every engine interaction is
validated against the strategy contract of
:mod:`repro.core.strategies.base`:

* every committed wrapper is bound to the consulted driver's rail;
* its wire size fits that driver's eager threshold, and its running
  ``wire_bytes`` tally equals a walk over its entries (entries must enter
  through ``PacketWrapper.add``);
* embedded send requests correspond to segments that were actually packed
  (each exactly once — no duplication, no invention);
* control entries queued via ``pack_ctrl`` are eventually emitted;
* a large segment is never embedded as eager data on a driver where it is
  not eager-eligible;
* a strategy that reads ``quiet`` has nothing to send: the pump would not
  have consulted it, so the checker does, and the consultation must
  return ``None`` and change nothing;
* a strategy that reads ``dma_bound`` holds no control entry and no small
  segment (one the fastest rail could carry eagerly), and consulted for a
  driver whose DMA engine is busy — which the pump would not do — it
  returns ``None`` and changes nothing;
* for adaptive strategies (:mod:`repro.core.strategies.adaptive`):
  completion observations arrive monotonically in sim time, and split
  ratios only change when the strategy's epoch index advances — a
  feedback controller that mutates its model mid-epoch would make commit
  decisions unreproducible across pump interleavings.

Each broken contract is reported as a :class:`Violation` naming the
invariant and carrying the offending segment/rail context — not a bare
boolean.  By default a violation raises
:class:`~repro.util.errors.StrategyError` at the exact call that broke
the contract, which is far easier to debug than a corrupted transfer
three rendezvous later.  With ``record_only=True`` violations accumulate
in :attr:`CheckedStrategy.violations` instead — the mode the chaos
harness (:mod:`repro.faults.chaos`) runs every strategy in, so a single
chaotic run reports *all* broken invariants rather than dying on the
first.  Usage::

    session = Session(plat, strategy=CheckedStrategy.wrapping("my_strategy"))
    ...                      # or: strategy=CheckedStrategy, strategy_opts={"inner": "greedy"}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ...util.errors import StrategyError
from ..packet import EagerEntry, PacketWrapper, RdvReq
from ..request import SendRequest
from .base import Strategy
from .registry import make_strategy

if TYPE_CHECKING:  # pragma: no cover
    from ...drivers.base import Driver
    from ..scheduler import NodeEngine

__all__ = ["CheckedStrategy", "Violation"]


@dataclass(frozen=True)
class Violation:
    """One broken strategy-contract invariant, with offending context."""

    #: which invariant broke: "rail-binding", "oversize", "tally-mismatch",
    #: "empty-wrapper", "eager-eligibility", "unknown-segment",
    #: "send-request-mismatch", "stranded-segments", "dropped-ctrl",
    #: "nonmonotone-observation", "mid-epoch-ratio-change",
    #: "quiet-with-work" or "dma-bound-with-work".
    invariant: str
    message: str
    #: offending segment/rail details as sorted (key, value) pairs.
    context: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        ctx = ", ".join(f"{k}={v}" for k, v in self.context)
        return f"[{self.invariant}] {self.message}" + (f" ({ctx})" if ctx else "")


class CheckedStrategy(Strategy):
    """A validating proxy around another strategy."""

    name = "checked"

    def __init__(self, inner: Any = "aggreg", record_only: bool = False, **inner_opts: Any):
        super().__init__()
        self.inner = make_strategy(inner, **inner_opts)
        self.name = f"checked({self.inner.name})"
        #: with ``record_only`` violations collect here instead of raising.
        self.record_only = record_only
        self.violations: list[Violation] = []
        #: packed segments not yet seen in a wrapper, by (dst, tag, seq)
        self._outstanding: dict[tuple[int, int, int], Any] = {}
        #: largest "small" payload: what the fastest rail carries eagerly
        #: (fixed at bind, as the two-queue strategies fix theirs)
        self._small_max = -1
        self._ctrl_queued = 0
        self._ctrl_emitted = 0
        #: adaptive-strategy invariants: observation end times must be
        #: monotone in sim time, and split ratios may only change when the
        #: inner strategy's epoch index does.
        self._last_obs_end_us: Optional[float] = None
        self._last_ratio_sig: Optional[tuple[Any, tuple[float, ...]]] = None

    @classmethod
    def wrapping(cls, inner: Any, record_only: bool = False, **inner_opts: Any):
        """A factory usable as a Session ``strategy=`` argument."""
        return lambda: cls(inner, record_only=record_only, **inner_opts)

    # ------------------------------------------------------------------ #
    def _fail(self, invariant: str, message: str, **context: Any) -> None:
        violation = Violation(invariant, message, tuple(sorted(context.items())))
        if self.record_only:
            self.violations.append(violation)
        else:
            raise StrategyError(str(violation))

    # ------------------------------------------------------------------ #
    def bind(self, engine: "NodeEngine") -> None:
        super().bind(engine)
        self.inner.bind(engine)
        if engine.drivers:
            fastest = min(engine.drivers, key=lambda d: d.latency_us)
            self._small_max = fastest.max_eager_payload

    def pack(self, engine: "NodeEngine", request: SendRequest) -> None:
        self._outstanding[(request.peer, request.tag, request.seq)] = request
        self.inner.pack(engine, request)

    def pack_ctrl(self, engine: "NodeEngine", dst_node: int, entry) -> None:
        self._ctrl_queued += 1
        self.inner.pack_ctrl(engine, dst_node, entry)

    @property
    def wants_observations(self) -> bool:
        return self.inner.wants_observations

    def observe(
        self, rail_index: int, kind: str, nbytes: int, start_us: float, end_us: float
    ) -> None:
        if end_us < start_us or (
            self._last_obs_end_us is not None and end_us < self._last_obs_end_us
        ):
            self._fail(
                "nonmonotone-observation",
                f"strategy {self.inner.name!r} was fed an observation going"
                " backwards in sim time",
                rail=rail_index,
                kind=kind,
                start_us=start_us,
                end_us=end_us,
                last_end_us=self._last_obs_end_us,
            )
        if self._last_obs_end_us is None or end_us > self._last_obs_end_us:
            self._last_obs_end_us = end_us
        self.inner.observe(rail_index, kind, nbytes, start_us, end_us)

    def _check_epoch_ratios(self, when: str) -> None:
        """Ratios may only change at epoch boundaries (PR 10 invariant)."""
        ratios = self.inner.current_ratios()
        if ratios is None:
            return
        sig = (self.inner.epoch_index(), tuple(ratios))
        if self._last_ratio_sig is not None:
            last_epoch, last_ratios = self._last_ratio_sig
            epoch, ratios = sig
            if epoch == last_epoch and ratios != last_ratios:
                self._fail(
                    "mid-epoch-ratio-change",
                    f"strategy {self.inner.name!r} changed its split ratios"
                    f" within epoch {epoch!r} ({when}); ratios may only"
                    " change when the epoch index advances",
                    epoch=str(epoch),
                    before=last_ratios,
                    after=ratios,
                )
        self._last_ratio_sig = sig

    def try_and_commit(
        self, engine: "NodeEngine", driver: "Driver"
    ) -> Optional[PacketWrapper]:
        self._check_epoch_ratios("before commit")
        inner = self.inner
        # the checker itself never reads quiet or dma_bound, so the pump
        # always asks; a flagged inner strategy is held to what the pump
        # would assume
        before = self._work_state() if inner.quiet else None
        dma_before = None
        if inner.dma_bound:
            self._check_dma_bound_holds(driver)
            if not driver.dma_idle:
                dma_before = self._work_state()
        pw = inner.try_and_commit(engine, driver)
        if before is not None and (pw is not None or self._work_state() != before):
            self._fail_flagged("quiet-with-work", "read quiet", driver, pw, before)
        if dma_before is not None and (pw is not None or self._work_state() != dma_before):
            self._fail_flagged(
                "dma-bound-with-work", "read dma_bound", driver, pw, dma_before
            )
        self._check_epoch_ratios("after commit")
        if pw is None:
            return None
        self._validate(driver, pw)
        return pw

    def _work_state(self) -> dict[str, int]:
        """What consulting a flagged strategy must leave untouched."""
        inner = self.inner
        return {
            "ctrl_pending": inner._ctrl_pending,
            "backlog": inner.backlog,
        }

    def _check_dma_bound_holds(self, driver: "Driver") -> None:
        """A DMA-bound strategy holds no control entry and no small segment."""
        small = sorted(
            key for key, request in self._outstanding.items()
            if request.payload.size <= self._small_max
        )
        ctrl = self.inner._ctrl_pending
        if small or ctrl:
            self._fail(
                "dma-bound-with-work",
                f"strategy {self.inner.name!r} read dma_bound when consulted for"
                f" {driver.name} — the pump would skip every DMA-busy rail — yet"
                f" it holds {ctrl} control entries and {len(small)} small segments",
                rail=driver.name,
                ctrl_pending=ctrl,
                small_segments=tuple(small[:8]),
            )

    def _fail_flagged(
        self,
        invariant: str,
        flag: str,
        driver: "Driver",
        pw: Optional[PacketWrapper],
        before: dict[str, int],
    ) -> None:
        context: dict[str, Any] = {"rail": driver.name}
        if pw is not None and pw.entries:
            head = pw.entries[0]
            context.update(
                dst=pw.dst_node,
                entry=type(head).__name__,
                tag=getattr(head, "tag", None),
                seq=getattr(head, "seq", None),
            )
        for key, now in self._work_state().items():
            if now != before[key]:
                context[key] = f"{before[key]}->{now}"
        self._fail(
            invariant,
            f"strategy {self.inner.name!r} {flag} when consulted for"
            f" {driver.name} — the pump would have skipped it — yet it "
            + ("returned a wrapper" if pw is not None else "changed its queues"),
            **context,
        )

    # ------------------------------------------------------------------ #
    def _validate(self, driver: "Driver", pw: PacketWrapper) -> None:
        label = f"strategy {self.inner.name!r}"
        if pw.rail_index != driver.rail_index:
            self._fail(
                "rail-binding",
                f"{label} committed a wrapper bound to rail {pw.rail_index}"
                f" when consulted for rail {driver.rail_index}",
                wrapper_rail=pw.rail_index,
                consulted_rail=driver.rail_index,
                dst=pw.dst_node,
            )
        size = pw.wire_bytes
        if size > driver.max_eager_bytes:
            self._fail(
                "oversize",
                f"{label} committed a {size}B wrapper over the"
                f" {driver.max_eager_bytes}B eager limit of {driver.name}",
                bytes=size,
                limit=driver.max_eager_bytes,
                rail=driver.name,
            )
        if not pw.entries:
            self._fail(
                "empty-wrapper",
                f"{label} committed an empty wrapper",
                rail=driver.name,
                dst=pw.dst_node,
            )
        eager_requests = []
        walked = 0
        for entry in pw.entries:
            walked += entry.wire_size(
                driver.spec.header_bytes
                if isinstance(entry, EagerEntry)
                else driver.spec.ctrl_bytes
            )
            if isinstance(entry, EagerEntry):
                if not driver.eager_eligible(entry.payload.size):
                    self._fail(
                        "eager-eligibility",
                        f"{label} embedded a {entry.payload.size}B segment as"
                        f" eager data on {driver.name}",
                        bytes=entry.payload.size,
                        rail=driver.name,
                        tag=entry.tag,
                        seq=entry.seq,
                    )
            if isinstance(entry, (EagerEntry, RdvReq)):
                key = (pw.dst_node, entry.tag, entry.seq)
                request = self._outstanding.pop(key, None)
                if request is None:
                    self._fail(
                        "unknown-segment",
                        f"{label} emitted segment {key} it never packed"
                        " (or emitted twice)",
                        dst=key[0],
                        tag=key[1],
                        seq=key[2],
                        rail=driver.name,
                    )
                elif isinstance(entry, EagerEntry):
                    eager_requests.append(request)
            else:
                self._ctrl_emitted += 1
        if walked != size:
            self._fail(
                "tally-mismatch",
                f"{label} committed a wrapper whose {size}B tally disagrees"
                f" with the {walked}B its entries occupy on {driver.name}",
                tally=size,
                walked=walked,
                rail=driver.name,
            )
        listed = list(pw.send_requests)
        if len(set(map(id, listed))) != len(listed):
            self._fail(
                "send-request-mismatch",
                f"{label} listed a send request twice",
                rail=driver.name,
                dst=pw.dst_node,
            )
        elif set(map(id, listed)) != set(map(id, eager_requests)):
            self._fail(
                "send-request-mismatch",
                f"{label} listed {len(listed)} send requests but embedded"
                f" {len(eager_requests)} eager segments (they must match"
                " one-to-one; rendezvous segments complete at drain)",
                listed=len(listed),
                embedded=len(eager_requests),
                rail=driver.name,
                dst=pw.dst_node,
            )

    # ------------------------------------------------------------------ #
    def drain_violations(self) -> list[Violation]:
        """Quiescence invariants, as violation records (does not raise)."""
        out: list[Violation] = []
        if self._outstanding:
            keys = sorted(self._outstanding)
            out.append(
                Violation(
                    "stranded-segments",
                    f"strategy {self.inner.name!r} still holds"
                    f" {len(self._outstanding)} packed segments",
                    (("segments", tuple(keys[:8])),),
                )
            )
        if self._ctrl_emitted < self._ctrl_queued:
            out.append(
                Violation(
                    "dropped-ctrl",
                    f"strategy {self.inner.name!r} dropped"
                    f" {self._ctrl_queued - self._ctrl_emitted} control entries",
                    (
                        ("queued", self._ctrl_queued),
                        ("emitted", self._ctrl_emitted),
                    ),
                )
            )
        return out

    def check_drained(self) -> list[Violation]:
        """Record-mode drain check: appends to and returns violations."""
        found = self.drain_violations()
        self.violations.extend(found)
        return found

    def assert_drained(self) -> None:
        """After traffic finished: nothing packed is still unsent and
        every queued control entry was emitted (raises on violation)."""
        for violation in self.drain_violations():
            raise StrategyError(str(violation))

    @property
    def backlog(self) -> int:
        return self.inner.backlog
