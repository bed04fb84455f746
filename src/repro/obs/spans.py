"""Span-based tracing of the engine's pump, drivers and protocols.

A :class:`Span` is one named interval of simulated time on a *track*.
Tracks mirror how a timeline UI lays the system out:

* ``pump`` — the per-node progress pump: one ``sweep`` span per loop
  iteration with nested ``poll`` / ``handle`` / ``commit`` children and
  zero-duration ``decision`` spans for each strategy consultation;
* ``rail:<name>`` — NIC activity of one rail: ``pio`` spans (the CPU-bound
  eager copy) and ``dma`` spans (background bulk flows);
* ``rdv`` — rendezvous handshakes, initiate to last-chunk-drained.

The recorder is **zero-cost when disabled**: hot paths guard with
``if spans.enabled:`` before building argument dicts, and a disabled
recorder's :meth:`SpanRecorder.begin` returns a shared inert span so even
unguarded call sites stay safe.

Synchronous spans (``begin``/``end``) must nest LIFO per ``(node, track)``
— the recorder enforces it, and the exporters rely on it.  Overlapping
activity (DMA flows, rendezvous) uses :meth:`SpanRecorder.add`, which
records a completed span in one call.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

__all__ = ["Span", "SpanRecorder", "SpanError", "NULL_SPAN"]

#: track name of the progress pump.
TRACK_PUMP = "pump"
#: track name of rendezvous handshakes.
TRACK_RDV = "rdv"
#: track name of fault windows and loss/retry markers.
TRACK_FAULTS = "faults"


def rail_track(rail_name: str) -> str:
    """Track name of one rail's NIC activity."""
    return f"rail:{rail_name}"


class SpanError(RuntimeError):
    """Raised on misuse of the recorder (unbalanced begin/end)."""


class Span:
    """One recorded interval.  ``t1`` is None while the span is open."""

    __slots__ = ("sid", "parent", "node", "track", "name", "cat", "t0", "t1", "args")

    def __init__(
        self,
        sid: int,
        parent: Optional[int],
        node: int,
        track: str,
        name: str,
        cat: str,
        t0: float,
        t1: Optional[float] = None,
        args: Optional[dict[str, Any]] = None,
    ):
        self.sid = sid
        self.parent = parent
        self.node = node
        self.track = track
        self.name = name
        self.cat = cat
        self.t0 = t0
        self.t1 = t1
        self.args = args

    @property
    def duration(self) -> float:
        if self.t1 is None:
            raise SpanError(f"span {self.name!r} still open")
        return self.t1 - self.t0

    @property
    def open(self) -> bool:
        return self.t1 is None

    def to_dict(self) -> dict[str, Any]:
        """JSONL-friendly plain dict."""
        d: dict[str, Any] = {
            "sid": self.sid,
            "node": self.node,
            "track": self.track,
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.parent is not None:
            d["parent"] = self.parent
        if self.args:
            d["args"] = self.args
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        """Rebuild a span from its :meth:`to_dict` form (stream replay)."""
        return cls(
            sid=d["sid"],
            parent=d.get("parent"),
            node=d["node"],
            track=d["track"],
            name=d["name"],
            cat=d["cat"],
            t0=d["t0"],
            t1=d.get("t1"),
            args=d.get("args"),
        )

    def __repr__(self) -> str:  # pragma: no cover
        end = f"{self.t1:.3f}" if self.t1 is not None else "…"
        return f"<Span {self.node}/{self.track} {self.name} [{self.t0:.3f},{end}]>"


#: Shared inert span handed out by disabled recorders.
NULL_SPAN = Span(sid=-1, parent=None, node=-1, track="", name="", cat="", t0=0.0, t1=0.0)


class SpanRecorder:
    """Collects spans for one session (all nodes, all tracks)."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next_sid = 0
        #: open synchronous spans, LIFO per (node, track).
        self._stacks: dict[tuple[int, str], list[Span]] = {}

    # -- recording -----------------------------------------------------------
    def begin(
        self,
        node: int,
        track: str,
        name: str,
        cat: str,
        t0: float,
        args: Optional[dict[str, Any]] = None,
    ) -> Span:
        """Open a synchronous span nested under the track's current top."""
        if not self.enabled:
            return NULL_SPAN
        stack = self._stacks.setdefault((node, track), [])
        parent = stack[-1].sid if stack else None
        span = Span(self._next_sid, parent, node, track, name, cat, t0, None, args)
        self._next_sid += 1
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span, t1: float) -> None:
        """Close the innermost open span of its track (must be ``span``)."""
        if not self.enabled or span is NULL_SPAN:
            return
        stack = self._stacks.get((span.node, span.track))
        if not stack or stack[-1] is not span:
            raise SpanError(
                f"unbalanced end: {span.name!r} is not the innermost open span"
                f" of track {span.track!r}"
            )
        if t1 < span.t0:
            raise SpanError(f"span {span.name!r} ends at {t1} before start {span.t0}")
        stack.pop()
        span.t1 = t1

    def add(
        self,
        node: int,
        track: str,
        name: str,
        cat: str,
        t0: float,
        t1: float,
        args: Optional[dict[str, Any]] = None,
    ) -> Span:
        """Record an already-finished span (async activity: DMA, rdv)."""
        if not self.enabled:
            return NULL_SPAN
        if t1 < t0:
            raise SpanError(f"span {name!r} ends at {t1} before start {t0}")
        span = Span(self._next_sid, None, node, track, name, cat, t0, t1, args)
        self._next_sid += 1
        self.spans.append(span)
        return span

    def instant(
        self, node: int, track: str, name: str, cat: str, t: float,
        args: Optional[dict[str, Any]] = None,
    ) -> Span:
        """Zero-duration marker (e.g. a strategy decision)."""
        return self.add(node, track, name, cat, t, t, args)

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    @property
    def open_count(self) -> int:
        return sum(len(s) for s in self._stacks.values())

    def by_node(self, node: int) -> list[Span]:
        return [s for s in self.spans if s.node == node]

    def by_name(self, name: str, node: Optional[int] = None) -> list[Span]:
        return [
            s for s in self.spans if s.name == name and (node is None or s.node == node)
        ]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def tracks(self, node: Optional[int] = None) -> set[tuple[int, str]]:
        return {
            (s.node, s.track) for s in self.spans if node is None or s.node == node
        }

    def clear(self) -> None:
        self.spans.clear()
        self._stacks.clear()

    def __repr__(self) -> str:  # pragma: no cover
        state = "on" if self.enabled else "off"
        return f"<SpanRecorder {state} spans={len(self.spans)} open={self.open_count}>"
