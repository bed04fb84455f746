"""Counters and structured event tracing.

Every node engine owns a :class:`Counters` (always on) and shares the
session's :class:`Tracer` (off by default — recording every pump action of
a bandwidth sweep would be large).  :meth:`Counters.add` is not a "plain
integer add": each one is a Python method call plus a string-keyed
``defaultdict`` update, which is why per-message and per-sweep code bumps
:attr:`Counters.counts` directly and counts per packet, not per entry
(DESIGN.md §6i).  The figure runners read counters to report e.g. how
many packets were aggregated or how bytes split across rails; tests use
them to assert mechanisms ("the greedy run really used both NICs").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["Counters", "Tracer", "TraceEvent", "NullTracer", "NULL_TRACER"]


class Counters:
    """A tiny named-counter bag."""

    def __init__(self) -> None:
        #: name → count; hot paths update it in place
        #: (``counts[name] += n``) to skip the :meth:`add` call.
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def __getitem__(self, name: str) -> int:
        return self.counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy (stable for asserting / diffing)."""
        return dict(self.counts)

    def merge(self, other: "Counters") -> "Counters":
        """Return a new Counters with both contributions summed."""
        out = Counters()
        for src in (self, other):
            for k, v in src.counts.items():
                out.counts[k] += v
        return out

    def merge_inplace(self, other: "Counters") -> "Counters":
        """Fold ``other``'s counts into this bag; returns ``self``.

        The aggregation loops (``session.counters()``, the figure
        runners) fold many per-node bags into one accumulator — in place,
        so N nodes cost N dict walks instead of N copies.
        """
        for k, v in other.counts.items():
            self.counts[k] += v
        return self

    def __iadd__(self, other: "Counters") -> "Counters":
        return self.merge_inplace(other)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self.counts.items()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counters({dict(sorted(self.counts.items()))})"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded engine action.

    ``data`` optionally carries machine-readable fields (e.g. the busy
    interval of a NIC) so analysis code never parses ``detail`` strings.
    """

    time_us: float
    node: int
    category: str
    detail: str
    data: Optional[dict] = None


class Tracer:
    """Optional structured event log shared by all engines of a session."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def record(
        self,
        time_us: float,
        node: int,
        category: str,
        detail: str,
        data: Optional[dict] = None,
    ) -> None:
        if self.enabled:
            self.events.append(TraceEvent(time_us, node, category, detail, data))

    def by_category(self, category: str) -> list[TraceEvent]:
        return [e for e in self.events if e.category == category]

    def by_node(self, node: int) -> list[TraceEvent]:
        return [e for e in self.events if e.node == node]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class NullTracer:
    """The tracer handed out by untraced sessions.

    Same surface as :class:`Tracer` with ``enabled`` pinned to False, so
    hot paths can guard with ``if tracer.enabled:`` and skip building
    ``detail`` strings entirely; an unguarded ``record`` is still a plain
    no-op (no list append, no event construction).
    """

    __slots__ = ()

    enabled = False
    events: tuple = ()

    def record(self, *_args, **_kwargs) -> None:
        pass

    def by_category(self, category: str) -> list[TraceEvent]:
        return []

    def by_node(self, node: int) -> list[TraceEvent]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: shared instance — the null tracer is stateless.
NULL_TRACER = NullTracer()
