"""Critical-path attribution: every microsecond of a send, charged once.

One pass over a traced session's spans (:func:`index_spans`) buckets them
per node — wrapper spans by the requests they carry, DMA chunks and chunk
losses by rendezvous id, and the pump-side kinds (PIO copy, commit, packet
handling, idle poll) in lanes that answer "what overlaps ``[t0, t1]``" by
bisection.  From that index each completed send's
``[submitted_at, completed_at]`` interval is partitioned into a closed
set of categories:

================== ======================================================
``queueing``       nothing else is chargeable: optimization-window
                   residence and rendezvous handshake wait
``aggregation_wait`` inside the committing sweep, before this request's
                   wrapper hits the wire (the aggregation memcpy)
``pio_copy``       a PIO post carrying *this* request occupies the CPU
``dma``            a DMA chunk of *this* request is on the wire
``rail_contention`` the sending pump is busy on *other* traffic
                   (someone else's PIO copy, commit, or packet handling)
``failover_retry`` between a detected loss of this request's data and
                   its relaunch (backoff + park)
``idle_poll``      the pump polls a rail that returns nothing — the
                   paper's Fig 6 multi-rail tax
================== ======================================================

Overlaps are resolved by fixed priority (own wire activity beats its
causes beats background noise; span-id order within a category), and the
partition is built from the elementary slices between *all* window
boundaries, so two invariants hold **by construction**: the per-category
attributions sum exactly to the request's ``total_us``, and the critical
path is one connected, contiguous chain of segments from submit to
completion.

The **lifecycle report** (:func:`lifecycle_report`, ``repro trace``) is
the coarse view of the same rows: ``queue_us`` (submit → first commit,
stamped by the pump), ``wire_us`` (first commit → completion) and the
idle-poll tax per rail — CPU time the *sending* pump spent polling rails
that returned nothing while the request was in flight.  The tax overlaps
the other components (polling happens while a request queues and
drains), so it is reported alongside, never summed.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Optional

from ..util.errors import BenchError
from ..util.tables import Table
from .spans import TRACK_FAULTS, TRACK_PUMP
from .timeline import merge_intervals

if TYPE_CHECKING:  # pragma: no cover
    from ..core.session import Session

__all__ = [
    "CATEGORIES",
    "PathSegment",
    "RequestAttribution",
    "CriticalPathReport",
    "index_spans",
    "attribute_requests",
    "lifecycle_report",
    "lifecycle_table",
    "poll_tax_by_rail",
    "analyze_session",
    "category_totals",
    "blame_by_rail",
    "blame_table",
    "attribution_table",
    "rail_timeline",
    "timeline_table",
    "critical_path_trace_events",
]

#: the closed attribution category set, in display order.
CATEGORIES = (
    "queueing",
    "aggregation_wait",
    "pio_copy",
    "dma",
    "rail_contention",
    "failover_retry",
    "idle_poll",
)

#: overlap resolution: lower number wins the slice.  Own wire activity
#: (pio/dma) dominates, then its direct causes (aggregation, failover),
#: then background noise (contention, idle polls); ``queueing`` is the
#: fallback when no window covers a slice.
_PRIORITY = {
    "pio_copy": 0,
    "dma": 1,
    "aggregation_wait": 2,
    "failover_retry": 3,
    "rail_contention": 4,
    "idle_poll": 5,
}

#: Chrome-trace tid base for the synthetic critical-path lane (far above
#: any real track tid assigned by :func:`repro.obs.export.to_chrome_trace`).
OVERLAY_TID = 1000


@dataclass(frozen=True)
class PathSegment:
    """One contiguous stretch of a request's critical path."""

    t0: float
    t1: float
    category: str
    rail: str = ""
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class RequestAttribution:
    """The fully-attributed critical path of one completed send."""

    node: int
    peer: int
    tag: int
    seq: int
    size: int
    submitted_at: float
    #: when the wrapper carrying it (or its rendezvous request) was first
    #: PIO-posted — stamped by the pump, not derived from spans.
    first_commit_at: Optional[float]
    completed_at: float
    segments: list[PathSegment] = field(default_factory=list)
    #: idle-poll overlap per rail (overlaps other categories, so it is
    #: reported alongside, never summed).
    poll_tax_by_rail: dict[str, float] = field(default_factory=dict)

    @property
    def total_us(self) -> float:
        return self.completed_at - self.submitted_at

    @property
    def queue_us(self) -> float:
        """Submit → first commit (optimization-window residence)."""
        if self.first_commit_at is None:
            return self.total_us
        return self.first_commit_at - self.submitted_at

    @property
    def wire_us(self) -> float:
        """First commit → completion (PIO copy / DMA drain)."""
        if self.first_commit_at is None:
            return 0.0
        return self.completed_at - self.first_commit_at

    @property
    def attributed_us(self) -> float:
        return sum(s.duration for s in self.segments)

    def by_category(self) -> dict[str, float]:
        out = {c: 0.0 for c in CATEGORIES}
        for seg in self.segments:
            out[seg.category] += seg.duration
        return out

    def connected(self) -> bool:
        """True when the segments form one gap-free chain over the
        request's whole lifetime (the partition guarantees it)."""
        if not self.segments:
            return self.total_us == 0.0
        if not math.isclose(
            self.segments[0].t0, self.submitted_at, rel_tol=1e-9, abs_tol=1e-9
        ):
            return False
        if not math.isclose(
            self.segments[-1].t1, self.completed_at, rel_tol=1e-9, abs_tol=1e-9
        ):
            return False
        return all(
            a.t1 == b.t0 for a, b in zip(self.segments, self.segments[1:])
        )


# --------------------------------------------------------------------------- #
# the one pass: spans bucketed by request and by overlap
# --------------------------------------------------------------------------- #
class _Lane:
    """Closed spans of one pump-side kind on one node, queried by overlap."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self._starts: list[float] = []
        self._ends: list[float] = []

    def seal(self) -> None:
        # a recorder hands spans over in start order already; the stable
        # sort keeps span-id order among equal starts and makes a
        # hand-filled recorder safe
        self.spans.sort(key=lambda s: s.t0)
        self._starts = [s.t0 for s in self.spans]
        # PIO copies offloaded to a worker overlap, so an early span may
        # outlast later ones: the lower bound bisects the running maximum
        self._ends = list(accumulate((s.t1 for s in self.spans), max))

    def overlapping(self, t0: float, t1: float) -> list[Any]:
        """Spans sharing more than an instant with ``[t0, t1]``, in
        span-id order (``_partition``'s clip test, applied early)."""
        lo = bisect_right(self._ends, t0)
        hi = bisect_left(self._starts, t1)
        hits = [s for s in self.spans[lo:hi] if min(s.t1, t1) > max(s.t0, t0)]
        hits.sort(key=lambda s: s.sid)
        return hits


def _carried(args: dict) -> dict[tuple[int, int, int], int]:
    """``(dst, tag, seq)`` of every request a wrapper span carries → its
    rendezvous req_id when it rides as a control entry, -1 as eager data."""
    dst = args.get("dst", -1)
    out = {(dst, tag, seq): -1 for tag, seq in args.get("reqs", [])}
    for rid, tag, seq in args.get("rdv", []):
        out.setdefault((dst, tag, seq), rid)
    return out


class _NodeIndex:
    """One node's closed spans: keyed by request where a span names its
    requests, in a :class:`_Lane` where it only occupies the pump."""

    def __init__(self) -> None:
        #: the pump-side kinds; ``poll`` holds idle polls only.
        self.lanes = {name: _Lane() for name in ("pio", "commit", "handle", "poll")}
        #: ``commit`` / ``pio`` → (dst, tag, seq) → [(span, rid)], span-id order
        self.carriers: dict[str, dict[tuple, list]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.eager_losses: dict[tuple, list[Any]] = defaultdict(list)
        # rendezvous req_id → spans
        self.dmas: dict[int, list[Any]] = defaultdict(list)
        self.chunk_losses: dict[int, list[Any]] = defaultdict(list)

    def add(self, span) -> None:
        args = span.args or {}
        if span.name == "poll" and span.track == TRACK_PUMP:
            if args.get("pkts", 0) == 0:
                self.lanes["poll"].spans.append(span)
        elif span.name in ("handle", "commit", "pio"):
            self.lanes[span.name].spans.append(span)
            for key, rid in _carried(args).items():  # a handle carries nothing
                self.carriers[span.name][key].append((span, rid))
        elif span.name == "dma":
            self.dmas[args.get("req_id", -1)].append(span)
        elif span.track == TRACK_FAULTS and span.name == "eager_lost":
            dst = args.get("dst", -1)  # control entries are not data lost
            for tag, seq in {(t, s) for t, s in args.get("reqs", [])}:
                self.eager_losses[(dst, tag, seq)].append(span)
        elif span.track == TRACK_FAULTS and span.name == "chunk_lost":
            self.chunk_losses[args.get("req_id", -1)].append(span)


class SpanIndex:
    """What :func:`index_spans` returns: per-node request indexes and the
    per-rail busy intervals of the whole run."""

    def __init__(self) -> None:
        self.nodes: dict[int, _NodeIndex] = defaultdict(_NodeIndex)
        #: rail → ``(t0, t1, rail)`` of every PIO/DMA span, all nodes merged.
        self.busy: dict[str, list[tuple[float, float, str]]] = defaultdict(list)


def index_spans(session: "Session") -> SpanIndex:
    """Walk the session's recorder **once** (one replay of a spilled
    stream) and bucket every closed span for the analyses below."""
    index = SpanIndex()
    for span in session.spans:
        if span.open:
            continue
        index.nodes[span.node].add(span)
        if span.name in ("pio", "dma"):
            rail = (span.args or {}).get("rail", "?")
            index.busy[rail].append((span.t0, span.t1, rail))
    for node in index.nodes.values():
        for lane in node.lanes.values():
            lane.seal()
    return index


# --------------------------------------------------------------------------- #
# attribution: priority-interval partition
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Window:
    t0: float
    t1: float
    category: str
    rail: str
    order: int
    detail: str = ""

    @property
    def prio(self) -> int:
        return _PRIORITY[self.category]


def _partition(
    t0: float, t1: float, windows: list[_Window]
) -> list[PathSegment]:
    """Partition ``[t0, t1]`` by highest-priority active window.

    Every window boundary becomes a cut point; each elementary slice is
    charged to the best window fully covering it (``queueing`` when none
    does); adjacent slices of one (category, rail) merge.  The cut points
    telescope, so segment durations sum to ``t1 - t0`` exactly up to
    float association — and the chain is contiguous by construction.
    """
    clipped = []
    cuts = {t0, t1}
    for w in windows:
        a, b = max(w.t0, t0), min(w.t1, t1)
        if b <= a:
            continue
        clipped.append((a, b, w))
        cuts.add(a)
        cuts.add(b)
    pts = sorted(cuts)
    segments: list[PathSegment] = []
    for a, b in zip(pts, pts[1:]):
        if b <= a:
            continue
        best: Optional[_Window] = None
        for wa, wb, w in clipped:
            if wa <= a and wb >= b:
                if best is None or (w.prio, w.order) < (best.prio, best.order):
                    best = w
        if best is None:
            cat, rail, detail = "queueing", "", ""
        else:
            cat, rail, detail = best.category, best.rail, best.detail
        prev = segments[-1] if segments else None
        if prev is not None and prev.category == cat and prev.rail == rail:
            segments[-1] = PathSegment(prev.t0, b, cat, rail, prev.detail)
        else:
            segments.append(PathSegment(a, b, cat, rail, detail))
    return segments


def attribute_requests(
    session: "Session", node_id: Optional[int] = None
) -> list[RequestAttribution]:
    """Attribute every completed send of ``session`` (one node or all).

    Requires a session built with ``trace=True``; raises
    :class:`~repro.util.errors.BenchError` when span tracing was off but
    sends clearly happened (nothing to attribute is indistinguishable
    from nothing sent only in the no-traffic case).
    """
    return _attribute(session, index_spans(session), node_id)


def _attribute(
    session: "Session", index: SpanIndex, node_id: Optional[int]
) -> list[RequestAttribution]:
    engines = session.engines if node_id is None else [session.engine(node_id)]
    if not session.spans.enabled and any(
        e.counters["segments_submitted"] for e in engines
    ):
        raise BenchError("critical-path attribution needs a trace=True session")
    out = [
        _attribute_one(index.nodes[engine.node_id], engine.node_id, req)
        for engine in engines
        for req in engine.sent_log
        if req.done
    ]
    out.sort(key=lambda a: (a.submitted_at, a.node, a.seq))
    return out


def _attribute_one(idx: _NodeIndex, node: int, req) -> RequestAttribution:
    """Windows are built only from what names or overlaps the request, in
    a fixed category order and span-id order within a category: ``order``
    breaks priority ties, so that order decides blamed rails."""
    t0, t1 = req.submitted_at, req.completed_at
    key = (req.peer, req.tag, req.seq)
    windows: list[_Window] = []

    def _add(
        w0: float, w1: float, category: str, span, detail: str = "", no_rail: str = ""
    ) -> str:
        rail = (span.args or {}).get("rail", no_rail)
        windows.append(_Window(w0, w1, category, rail, len(windows), detail))
        return rail

    own_commits = idx.carriers["commit"].get(key, ())
    own_pios = idx.carriers["pio"].get(key, ())
    rdv_id: Optional[int] = None
    for _span, rid in (*own_commits, *own_pios):
        if rid >= 0:
            rdv_id = rid
    own = {span for span, _rid in (*own_commits, *own_pios)}
    for span, _rid in own_pios:
        _add(span.t0, span.t1, "pio_copy", span)
    for span in idx.lanes["pio"].overlapping(t0, t1):
        if span not in own:
            _add(span.t0, span.t1, "rail_contention", span, "other pio")
    own_dmas = idx.dmas.get(rdv_id, ())
    for span in own_dmas:
        _add(span.t0, span.t1, "dma", span)
    # aggregation wait: committing sweep reached this wrapper, wire not yet
    for cspan, _rid in own_commits:
        pio_t0 = min(
            (p.t0 for p, _rid in own_pios if p.t0 >= cspan.t0), default=cspan.t1
        )
        if pio_t0 > cspan.t0:
            _add(cspan.t0, pio_t0, "aggregation_wait", cspan)
    # failover: detected loss → relaunch of this request's data
    for span in idx.chunk_losses.get(rdv_id, ()):
        nxt = min((d.t0 for d in own_dmas if d.t0 >= span.t1), default=t1)
        _add(span.t1, nxt, "failover_retry", span, "chunk")
    for span in idx.eager_losses.get(key, ()):
        nxt = min((p.t0 for p, _rid in own_pios if p.t0 >= span.t1), default=t1)
        _add(span.t1, nxt, "failover_retry", span, "eager")
    # background noise: other wrappers' commits, packet handling, idle polls
    for span in idx.lanes["commit"].overlapping(t0, t1):
        if span not in own:
            _add(span.t0, span.t1, "rail_contention", span, "other commit")
    for span in idx.lanes["handle"].overlapping(t0, t1):
        _add(span.t0, span.t1, "rail_contention", span, "handle")
    attribution = RequestAttribution(
        node=node, peer=req.peer, tag=req.tag, seq=req.seq,
        size=req.payload.size, submitted_at=t0,
        first_commit_at=req.first_commit_at, completed_at=t1,
    )
    tax = attribution.poll_tax_by_rail
    for span in idx.lanes["poll"].overlapping(t0, t1):
        rail = _add(span.t0, span.t1, "idle_poll", span, no_rail="?")
        tax[rail] = tax.get(rail, 0.0) + (min(span.t1, t1) - max(span.t0, t0))
    attribution.segments = _partition(t0, t1, windows)
    return attribution


def lifecycle_report(
    session: "Session", node_id: Optional[int] = None
) -> list[RequestAttribution]:
    """The rows ``repro trace`` tabulates: :func:`attribute_requests`,
    and ``[]`` for an untraced session (engines keep their request log —
    and the poll spans the tax is computed from — only while tracing)."""
    return attribute_requests(session, node_id) if session.spans.enabled else []


def poll_tax_by_rail(rows: list[RequestAttribution]) -> dict[str, float]:
    """Total idle-poll time attributed per rail across a report."""
    out: dict[str, float] = {}
    for row in rows:
        for rail, us in row.poll_tax_by_rail.items():
            out[rail] = out.get(rail, 0.0) + us
    return out


def lifecycle_table(rows: list[RequestAttribution]) -> Table:
    """The coarse per-request view: total = queue + wire, poll tax per rail."""
    rails = sorted({rail for r in rows for rail in r.poll_tax_by_rail})
    table = Table(
        ["node", "peer", "tag#seq", "bytes", "total us", "queue us", "wire us"]
        + [f"poll {r} (us)" for r in rails],
        title="Request lifecycle",
        precision=2,
    )
    for r in rows:
        table.add_row(
            r.node, r.peer, f"{r.tag}#{r.seq}", r.size,
            r.total_us, r.queue_us, r.wire_us,
            *[r.poll_tax_by_rail.get(rail, 0.0) for rail in rails],
        )
    return table


# --------------------------------------------------------------------------- #
# aggregates: blame table, category totals, rail timelines
# --------------------------------------------------------------------------- #
def category_totals(attributions: list[RequestAttribution]) -> dict[str, float]:
    """Critical-path microseconds per category across a report."""
    out = {c: 0.0 for c in CATEGORIES}
    for attr in attributions:
        for cat, us in attr.by_category().items():
            out[cat] += us
    return out


def blame_by_rail(
    attributions: list[RequestAttribution],
) -> dict[str, dict[str, Any]]:
    """Per-rail blame: critical-path µs, per-category split, request count."""
    out: dict[str, dict[str, Any]] = {}
    for attr in attributions:
        seen: set[str] = set()
        for seg in attr.segments:
            if not seg.rail:
                continue
            row = out.setdefault(
                seg.rail,
                {"us": 0.0, "requests": 0, "by_category": {}},
            )
            row["us"] += seg.duration
            row["by_category"][seg.category] = (
                row["by_category"].get(seg.category, 0.0) + seg.duration
            )
            seen.add(seg.rail)
        for rail in seen:
            out[rail]["requests"] += 1
    return out


def blame_table(attributions: list[RequestAttribution]) -> Table:
    """"Rail X contributed N µs of critical path across M requests"."""
    blame = blame_by_rail(attributions)
    cats = [c for c in CATEGORIES if any(
        c in row["by_category"] for row in blame.values()
    )]
    table = Table(
        ["rail", "critical-path us", "requests"] + [f"{c} (us)" for c in cats],
        title="Critical-path blame by rail",
        precision=2,
    )
    for rail in sorted(blame):
        row = blame[rail]
        table.add_row(
            rail, row["us"], row["requests"],
            *[row["by_category"].get(c, 0.0) for c in cats],
        )
    return table


def attribution_table(attributions: list[RequestAttribution]) -> Table:
    """Per-request category breakdown (the analyze CLI's main table)."""
    table = Table(
        ["node", "peer", "tag#seq", "bytes", "total us"]
        + [f"{c} (us)" for c in CATEGORIES]
        + ["poll tax (us)"],
        title="Critical-path attribution",
        precision=2,
    )
    for attr in attributions:
        cats = attr.by_category()
        table.add_row(
            attr.node, attr.peer, f"{attr.tag}#{attr.seq}", attr.size,
            attr.total_us, *[cats[c] for c in CATEGORIES],
            sum(attr.poll_tax_by_rail.values()),
        )
    return table


@dataclass
class RailTimeline:
    """Binned utilization per rail plus the per-bin imbalance spread."""

    t0: float
    t1: float
    bin_us: float
    utilization: dict[str, list[float]] = field(default_factory=dict)

    @property
    def n_bins(self) -> int:
        return 0 if not self.utilization else len(next(iter(self.utilization.values())))

    @property
    def imbalance(self) -> list[float]:
        """max − min utilization across rails, per bin."""
        if not self.utilization:
            return []
        series = list(self.utilization.values())
        return [
            max(s[i] for s in series) - min(s[i] for s in series)
            for i in range(len(series[0]))
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "bin_us": self.bin_us,
            "utilization": self.utilization,
            "imbalance": self.imbalance,
        }


def rail_timeline(session: "Session", bins: int = 24) -> RailTimeline:
    """Busy-fraction timeline per rail (PIO + DMA, all nodes merged)."""
    return _bin_busy(index_spans(session).busy, bins)


def _bin_busy(
    busy: dict[str, list[tuple[float, float, str]]], bins: int
) -> RailTimeline:
    if bins < 1:
        raise BenchError(f"bins must be >= 1, got {bins}")
    t1 = max((b for ivs in busy.values() for _a, b, _rail in ivs), default=0.0)
    timeline = RailTimeline(t0=0.0, t1=t1, bin_us=(t1 / bins) if t1 > 0 else 0.0)
    if t1 <= 0.0:
        return timeline
    width = t1 / bins
    for rail, intervals in busy.items():
        merged = merge_intervals(intervals)
        util = []
        for i in range(bins):
            b0, b1 = i * width, (i + 1) * width
            occupied = sum(
                max(0.0, min(b, b1) - max(a, b0)) for a, b, _rail in merged
            )
            util.append(occupied / width)
        timeline.utilization[rail] = util
    return timeline


def timeline_table(timeline: RailTimeline) -> Table:
    """Render a rail timeline as one row per bin."""
    rails = sorted(timeline.utilization)
    table = Table(
        ["bin start (us)"] + [f"{r} util" for r in rails] + ["imbalance"],
        title="Rail utilization timeline",
        precision=3,
    )
    imbalance = timeline.imbalance
    for i in range(timeline.n_bins):
        table.add_row(
            i * timeline.bin_us,
            *[timeline.utilization[r][i] for r in rails],
            imbalance[i],
        )
    return table


# --------------------------------------------------------------------------- #
# chrome-trace overlay
# --------------------------------------------------------------------------- #
def critical_path_trace_events(
    attributions: list[RequestAttribution],
) -> list[dict[str, Any]]:
    """Overlay events: one synthetic "critical path" lane per node.

    Appended to :func:`repro.obs.export.to_chrome_trace` output, the lane
    shows each request's attributed segments end to end, so the critical
    path reads directly off the timeline UI.
    """
    events: list[dict[str, Any]] = []
    for node in sorted({a.node for a in attributions}):
        events.append({
            "ph": "M",
            "name": "thread_name",
            "pid": node,
            "tid": OVERLAY_TID,
            "args": {"name": "critical path"},
        })
    for attr in attributions:
        for seg in attr.segments:
            events.append({
                "ph": "X",
                "name": seg.category,
                "cat": "critpath",
                "pid": attr.node,
                "tid": OVERLAY_TID,
                "ts": seg.t0,
                "dur": seg.duration,
                "args": {
                    "rail": seg.rail,
                    "tag": attr.tag,
                    "seq": attr.seq,
                    "detail": seg.detail,
                },
            })
    return events


# --------------------------------------------------------------------------- #
# the analyze bundle
# --------------------------------------------------------------------------- #
@dataclass
class CriticalPathReport:
    """Everything ``repro analyze`` prints/exports, in one object."""

    attributions: list[RequestAttribution]
    timeline: RailTimeline

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": [
                {
                    "node": a.node,
                    "peer": a.peer,
                    "tag": a.tag,
                    "seq": a.seq,
                    "bytes": a.size,
                    "total_us": a.total_us,
                    "by_category": a.by_category(),
                    "poll_tax_by_rail": a.poll_tax_by_rail,
                    "segments": [
                        {
                            "t0": s.t0,
                            "t1": s.t1,
                            "category": s.category,
                            "rail": s.rail,
                        }
                        for s in a.segments
                    ],
                }
                for a in self.attributions
            ],
            "category_totals": category_totals(self.attributions),
            "blame_by_rail": blame_by_rail(self.attributions),
            "poll_tax_by_rail": self.poll_tax_totals(),
            "rail_timeline": self.timeline.to_dict(),
        }

    def poll_tax_totals(self) -> dict[str, float]:
        return poll_tax_by_rail(self.attributions)

    def verify(self) -> list[str]:
        """Invariant check: sum-to-total and connectivity, per request.

        Returns human-readable violations (empty = all good); ``repro
        analyze`` exits non-zero on any.
        """
        problems: list[str] = []
        for attr in self.attributions:
            label = f"node{attr.node} {attr.tag}#{attr.seq}"
            if not math.isclose(
                attr.attributed_us, attr.total_us, rel_tol=1e-9, abs_tol=1e-6
            ):
                problems.append(
                    f"{label}: attributed {attr.attributed_us} != total {attr.total_us}"
                )
            if not attr.connected():
                problems.append(f"{label}: critical path is not a connected chain")
        return problems


def analyze_session(
    session: "Session", node_id: Optional[int] = None, bins: int = 24
) -> CriticalPathReport:
    """Full critical-path analysis of one traced, finished session."""
    index = index_spans(session)
    return CriticalPathReport(
        attributions=_attribute(session, index, node_id),
        timeline=_bin_busy(index.busy, bins),
    )
