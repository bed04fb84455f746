"""The three instrument kinds: counters, gauges and fixed-bucket histograms.

A :class:`~repro.obs.metrics.MetricsRegistry` makes and keys them (one
registry per session; :mod:`repro.obs.metrics` re-exports every name
here).  An instrument is a plain slotted object the engine writes
directly: a counter's or gauge's ``value``, a histogram's
:attr:`Histogram.pending` batch.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from operator import add
from typing import Optional, Sequence, Union

__all__ = ["Counter", "FOLD_AT", "Gauge", "Histogram", "render_labels"]

Number = Union[int, float]


def render_labels(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """``("rail","myri10g")`` label pairs rendered Prometheus-style."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing number (float-friendly: time counters)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    @property
    def full_name(self) -> str:
        return render_labels(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.full_name}={self.value}>"


class Gauge:
    """A value that can go up and down (e.g. a rail's detected state)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    @property
    def full_name(self) -> str:
        return render_labels(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Gauge {self.full_name}={self.value}>"


#: observations a :class:`Histogram` holds unfolded — a fixed bound, not an
#: option.  Large enough that a fold (one ``sorted`` and one ``bisect_right``
#: per edge, all C) costs a fraction of the frames it replaces, small
#: enough that the batch stays in cache.
FOLD_AT = 128

#: every distinct edge sequence a histogram was built with -> its
#: validated float tuple (a memo: a session's histograms share a handful)
_CHECKED_EDGES: dict[tuple, tuple[float, ...]] = {}


def _checked_edges(name: str, edges: Sequence[float]) -> tuple[float, ...]:
    key = tuple(edges)
    e = _CHECKED_EDGES.get(key)
    if e is None:
        if not key:
            raise ValueError(f"histogram {name!r} needs at least one bucket edge")
        e = tuple(float(x) for x in key)
        if list(e) != sorted(set(e)):
            raise ValueError(f"histogram {name!r} edges must be strictly increasing: {edges}")
        _CHECKED_EDGES[key] = e
    return e


class Histogram:
    """Fixed-bucket histogram with ``le`` (less-or-equal) semantics.

    ``counts[i]`` counts observations ``v <= edges[i]``; the final bucket
    (``counts[-1]``) is the +inf overflow.  Edge values land in the bucket
    they name, Prometheus-style::

        >>> h = Histogram("t", edges=(1.0, 10.0))
        >>> for v in (0.5, 1.0, 1.5, 10.0, 11.0): h.observe(v)
        >>> h.counts
        [2, 2, 1]

    An observation is one append to :attr:`pending`; :meth:`fold` moves
    the batch into the buckets with C-level calls, once it holds
    :data:`FOLD_AT` values and before any reader (``counts``, ``count``,
    ``total``, :meth:`snapshot`, :meth:`merge_inplace`) looks.  The result
    is the per-value one bit for bit, for any split into batches:
    ``total`` is the same left-to-right float sum, and the first of equal
    extremes stays the snapshot's ``min`` / ``max``.
    A hot path that owns a histogram appends to ``pending`` itself and
    calls :meth:`fold` once the list holds ``FOLD_AT`` values or more.

    A NaN observation has no bucket: the fold that meets it raises
    ``ValueError`` and counts nothing of its batch, and so does every
    later fold.
    """

    __slots__ = (
        "name", "labels", "edges", "pending",
        "_counts", "_count", "_total", "_vmin", "_vmax",
    )

    def __init__(
        self,
        name: str,
        edges: Sequence[float],
        labels: tuple[tuple[str, str], ...] = (),
    ):
        self.name = name
        self.labels = labels
        self.edges = _checked_edges(name, edges)
        #: observations not yet folded into the buckets (one list for the
        #: histogram's life: owners may hold on to it)
        self.pending: list[Number] = []
        self._counts = [0] * (len(self.edges) + 1)
        self._count = 0
        self._total: Number = 0.0
        self._vmin: Optional[Number] = None
        self._vmax: Optional[Number] = None

    def observe(self, value: Number) -> None:
        pending = self.pending
        pending.append(value)
        if len(pending) >= FOLD_AT:
            self.fold()

    def fold(self) -> None:
        """Move :attr:`pending` into the buckets, ``total`` and extremes."""
        pending = self.pending
        if not pending:
            return
        total = reduce(add, pending, self._total)
        if total != total and any(v != v for v in pending):
            raise ValueError(f"histogram {self.full_name}: NaN observation")
        batch = sorted(pending)
        n = len(batch)
        counts = self._counts
        below = 0
        for i, edge in enumerate(self.edges):
            upto = bisect_right(batch, edge, below)
            counts[i] += upto - below
            below = upto
            if below == n:
                break
        else:
            counts[-1] += n - below
        lo, hi = batch[0], max(pending)  # a stable sort: first of equals
        if self._count:
            if lo < self._vmin:
                self._vmin = lo
            if hi > self._vmax:
                self._vmax = hi
        else:
            self._vmin, self._vmax = lo, hi
        self._count += n
        self._total = total
        pending.clear()

    @property
    def counts(self) -> list[int]:
        if self.pending:
            self.fold()
        return self._counts

    @property
    def count(self) -> int:
        if self.pending:
            self.fold()
        return self._count

    @property
    def total(self) -> Number:
        if self.pending:
            self.fold()
        return self._total

    @property
    def mean(self) -> float:
        count = self.count
        return self._total / count if count else 0.0

    @property
    def full_name(self) -> str:
        return render_labels(self.name, self.labels)

    def snapshot(self) -> dict:
        if self.pending:
            self.fold()
        return {
            "edges": list(self.edges),
            "counts": list(self._counts),
            "count": self._count,
            "total": self._total,
            "min": self._vmin,
            "max": self._vmax,
        }

    def merge_inplace(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram (same edges);
        returns ``self``."""
        if self.edges != other.edges:
            raise ValueError(f"cannot merge {other.full_name}: bucket edges differ")
        if other.pending:
            other.fold()
        if self.pending:
            self.fold()
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self._count += other._count
        self._total += other._total
        for v in (other._vmin, other._vmax):
            if v is not None:
                if self._vmin is None or v < self._vmin:
                    self._vmin = v
                if self._vmax is None or v > self._vmax:
                    self._vmax = v
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.full_name} n={self.count} mean={self.mean:.2f}>"
