"""The always-on per-node counter bag.

Every node engine owns a :class:`Counters`; what happened *when* is the
span recorder's job (:mod:`repro.obs.spans`, off by default).
:meth:`Counters.add` is not a "plain
integer add": each one is a Python method call plus a string-keyed
``defaultdict`` update, which is why per-message and per-sweep code bumps
:attr:`Counters.counts` directly and counts per packet, not per entry
(DESIGN.md §6i).  The figure runners read counters to report e.g. how
many packets were aggregated or how bytes split across rails; tests use
them to assert mechanisms ("the greedy run really used both NICs").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

__all__ = ["Counters"]


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
