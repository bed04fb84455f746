"""Critical-path extraction: every microsecond of a send, attributed.

The lifecycle report (:mod:`repro.obs.report`) buckets a request into
queue/wire time; this module goes one level deeper.  From the span stream
of a traced session it builds a **causal event graph** per send request —
submit → commit(s) → PIO post(s) → (rendezvous: DMA chunk drains) →
completion, with loss-detection and retry edges when faults fired — and
partitions the request's entire ``[submitted_at, completed_at]`` interval
into a closed set of categories:

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
causes beats background noise), and the partition is built from the
elementary slices between *all* window boundaries, so two invariants hold
**by construction**: the per-category attributions sum exactly to
``RequestLifecycle.total_us``, and the critical path is one connected,
contiguous chain of segments from submit to completion.  The idle-poll
overlap formula is byte-for-byte the lifecycle report's, so the Fig 6
poll-tax totals reconcile exactly (``repro analyze`` asserts it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..util.errors import BenchError
from ..util.tables import Table
from .spans import TRACK_FAULTS, TRACK_PUMP

if TYPE_CHECKING:  # pragma: no cover
    from ..core.session import Session

__all__ = [
    "CATEGORIES",
    "PathSegment",
    "RequestAttribution",
    "CausalEvent",
    "CausalGraph",
    "CriticalPathReport",
    "build_graph",
    "attribute_requests",
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
    completed_at: float
    segments: list[PathSegment] = field(default_factory=list)
    #: idle-poll overlap per rail, same formula as the lifecycle report's
    #: ``poll_tax_by_rail`` (reconciliation hook; overlaps other
    #: categories, so it is reported alongside, never summed).
    poll_tax_by_rail: dict[str, float] = field(default_factory=dict)

    @property
    def total_us(self) -> float:
        return self.completed_at - self.submitted_at

    @property
    def attributed_us(self) -> float:
        return sum(s.duration for s in self.segments)

    def by_category(self) -> dict[str, float]:
        out = {c: 0.0 for c in CATEGORIES}
        for seg in self.segments:
            out[seg.category] += seg.duration
        return out

    def by_rail(self) -> dict[str, float]:
        """Critical-path time per rail (segments with no rail excluded)."""
        out: dict[str, float] = {}
        for seg in self.segments:
            if seg.rail:
                out[seg.rail] = out.get(seg.rail, 0.0) + seg.duration
        return out

    def connected(self, rel_tol: float = 1e-9) -> bool:
        """True when the segments form one gap-free chain over the
        request's whole lifetime (the partition guarantees it)."""
        if not self.segments:
            return self.total_us == 0.0
        if not math.isclose(
            self.segments[0].t0, self.submitted_at, rel_tol=rel_tol, abs_tol=1e-9
        ):
            return False
        if not math.isclose(
            self.segments[-1].t1, self.completed_at, rel_tol=rel_tol, abs_tol=1e-9
        ):
            return False
        return all(
            a.t1 == b.t0 for a, b in zip(self.segments, self.segments[1:])
        )


# --------------------------------------------------------------------------- #
# causal event graph
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CausalEvent:
    """One node of the causal graph (a span endpoint or an instant)."""

    eid: int
    kind: str  # submit|commit|pio|dma|rdv_done|eager_lost|chunk_lost|chunk_retry|complete
    t0: float
    t1: float
    node: int
    rail: str = ""
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class CausalGraph:
    """Per-request causal chains over one traced session's spans."""

    events: list[CausalEvent] = field(default_factory=list)
    #: (src_eid, dst_eid, label) — labels name the causal step.
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    #: request key (node, peer, tag, seq) → its event ids, time-ordered.
    requests: dict[tuple[int, int, int, int], list[int]] = field(default_factory=dict)

    def add_event(self, kind: str, t0: float, t1: float, node: int,
                  rail: str = "", **args: Any) -> int:
        eid = len(self.events)
        self.events.append(CausalEvent(eid, kind, t0, t1, node, rail, args))
        return eid

    def add_edge(self, src: int, dst: int, label: str) -> None:
        self.edges.append((src, dst, label))

    def successors(self, eid: int) -> list[int]:
        return [d for s, d, _l in self.edges if s == eid]

    def reachable(self, key: tuple[int, int, int, int]) -> bool:
        """Every event of the request is reachable from its submit."""
        eids = self.requests.get(key, [])
        if not eids:
            return False
        todo, seen = [eids[0]], {eids[0]}
        members = set(eids)
        while todo:
            cur = todo.pop()
            for nxt in self.successors(cur):
                if nxt in members and nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen == members


class _NodeIndex:
    """One pass over a node's spans, bucketed for request assembly."""

    def __init__(self, session: "Session", node: int):
        self.node = node
        # (span, eager {(tag,seq)}, rdv {req_id: (tag,seq)}, dst)
        self.commits: list[tuple[Any, set, dict, int]] = []
        self.pios: list[tuple[Any, set, dict, int]] = []
        self.dmas: dict[int, list[Any]] = {}
        self.rdv_done: dict[int, Any] = {}
        self.eager_losses: list[tuple[Any, set, int]] = []
        self.chunk_losses: dict[int, list[Any]] = {}
        self.chunk_retries: dict[int, list[Any]] = {}
        self.idle_polls: list[tuple[float, float, str]] = []
        self.handles: list[Any] = []
        for span in session.spans.by_node(node):
            if span.open:
                continue
            args = span.args or {}
            if span.name == "poll" and span.track == TRACK_PUMP:
                if args.get("pkts", 0) == 0:
                    self.idle_polls.append((span.t0, span.t1, args.get("rail", "?")))
            elif span.name == "handle":
                self.handles.append(span)
            elif span.name == "commit":
                self.commits.append(
                    (span, _eager_keys(args), _rdv_map(args), args.get("dst", -1))
                )
            elif span.name == "pio":
                self.pios.append(
                    (span, _eager_keys(args), _rdv_map(args), args.get("dst", -1))
                )
            elif span.name == "dma":
                self.dmas.setdefault(args.get("req_id", -1), []).append(span)
            elif span.track == "rdv" and "req_id" in args:
                self.rdv_done[args["req_id"]] = span
            elif span.track == TRACK_FAULTS and span.name == "eager_lost":
                self.eager_losses.append((span, _eager_keys(args), args.get("dst", -1)))
            elif span.track == TRACK_FAULTS and span.name == "chunk_lost":
                self.chunk_losses.setdefault(args.get("req_id", -1), []).append(span)
            elif span.track == TRACK_FAULTS and span.name in ("chunk_retry", "chunk_park"):
                self.chunk_retries.setdefault(args.get("req_id", -1), []).append(span)


def _eager_keys(args: dict) -> set:
    return {(t, s) for t, s in args.get("reqs", [])}


def _rdv_map(args: dict) -> dict:
    return {rid: (t, s) for rid, t, s in args.get("rdv", [])}


def _carries(entry: tuple, tag: int, seq: int, peer: int) -> Optional[int]:
    """Does an indexed commit/pio carry request (tag, seq) → peer?

    Returns the rendezvous req_id when it rides as a control entry, -1
    when it rides as eager data, None when it is someone else's wrapper.
    """
    _span, eager, rdv, dst = entry
    if dst != peer:
        return None
    if (tag, seq) in eager:
        return -1
    for rid, (t, s) in rdv.items():
        if (t, s) == (tag, seq):
            return rid
    return None


def build_graph(session: "Session", node_id: Optional[int] = None) -> CausalGraph:
    """The causal event graph of every completed send of a session.

    Requires ``trace=True`` — without spans there is nothing to connect.
    Semantic edges (``queue``, ``post``, ``wire``, ``handshake``,
    ``drain``, ``loss``, ``backoff``, ``relaunch``) capture *why* each
    event happened; any event left without a cause is chained to its
    latest predecessor with a ``follows`` edge so every request's events
    stay reachable from its submit.
    """
    graph = CausalGraph()
    engines = session.engines if node_id is None else [session.engine(node_id)]
    for engine in engines:
        idx = _NodeIndex(session, engine.node_id)
        for req in engine.sent_log:
            if not req.done:
                continue
            _assemble_request(graph, idx, engine.node_id, req)
    return graph


def _assemble_request(graph: CausalGraph, idx: _NodeIndex, node: int, req) -> None:
    key = (node, req.peer, req.tag, req.seq)
    submit = graph.add_event(
        "submit", req.submitted_at, req.submitted_at, node,
        tag=req.tag, seq=req.seq, bytes=req.payload.size, dst=req.peer,
    )
    eids = [submit]
    caused: set[int] = set()

    def _event(kind: str, span, rail: str = "", **args) -> int:
        eid = graph.add_event(kind, span.t0, span.t1, node, rail, **args)
        eids.append(eid)
        return eid

    rdv_id: Optional[int] = None
    pio_eids: list[tuple[Any, int]] = []
    for entry in idx.commits:
        rid = _carries(entry, req.tag, req.seq, req.peer)
        if rid is None:
            continue
        span = entry[0]
        ceid = _event("commit", span, (span.args or {}).get("rail", ""))
        graph.add_edge(submit, ceid, "queue")
        caused.add(ceid)
        if rid >= 0:
            rdv_id = rid
    for entry in idx.pios:
        rid = _carries(entry, req.tag, req.seq, req.peer)
        if rid is None:
            continue
        span = entry[0]
        peid = _event("pio", span, (span.args or {}).get("rail", ""))
        pio_eids.append((span, peid))
        if rid >= 0:
            rdv_id = rid
    dma_eids: list[tuple[Any, int]] = []
    if rdv_id is not None:
        for span in idx.dmas.get(rdv_id, []):
            deid = _event("dma", span, (span.args or {}).get("rail", ""))
            dma_eids.append((span, deid))
            for pspan, peid in pio_eids:
                if pspan.t1 <= span.t0:
                    graph.add_edge(peid, deid, "handshake")
                    caused.add(deid)
                    break
        for span in idx.chunk_losses.get(rdv_id, []):
            leid = _event("chunk_lost", span, (span.args or {}).get("rail", ""))
            for dspan, deid in dma_eids:
                graph.add_edge(deid, leid, "loss")
                caused.add(leid)
                break
        for span in idx.chunk_retries.get(rdv_id, []):
            _event(span.name, span, (span.args or {}).get("rail", ""))
    for span, leids, dst in idx.eager_losses:
        if dst == req.peer and (req.tag, req.seq) in leids:
            leid = _event("eager_lost", span, (span.args or {}).get("rail", ""))
            for pspan, peid in pio_eids:
                if pspan.t1 <= span.t1:
                    graph.add_edge(peid, leid, "loss")
                    caused.add(leid)
    complete = graph.add_event(
        "complete", req.completed_at, req.completed_at, node, dst=req.peer
    )
    eids.append(complete)
    last_wire = dma_eids[-1][1] if dma_eids else (
        pio_eids[-1][1] if pio_eids else submit
    )
    graph.add_edge(last_wire, complete, "drain" if dma_eids else "wire")
    caused.add(complete)
    # commit → its pio ("post"), loss → next relaunch ("backoff"/"relaunch")
    for pspan, peid in pio_eids:
        best = None
        for entry in idx.commits:
            if _carries(entry, req.tag, req.seq, req.peer) is None:
                continue
            cspan = entry[0]
            if cspan.t0 <= pspan.t0 and (best is None or cspan.t0 > best[0].t0):
                best = entry
        if best is not None:
            ceid = next(
                e for e in eids
                if graph.events[e].kind == "commit"
                and graph.events[e].t0 == best[0].t0
            )
            graph.add_edge(ceid, peid, "post")
            caused.add(peid)
    # any event still uncaused chains to its latest predecessor
    ordered = sorted(eids, key=lambda e: (graph.events[e].t0, e))
    for pos, eid in enumerate(ordered):
        if eid == submit or eid in caused:
            continue
        prev = ordered[pos - 1] if pos > 0 else submit
        if prev == eid:  # pragma: no cover - defensive
            prev = submit
        graph.add_edge(prev, eid, "follows")
    graph.requests[key] = ordered


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
    engines = session.engines if node_id is None else [session.engine(node_id)]
    if not session.spans.enabled and any(
        e.counters["segments_submitted"] for e in engines
    ):
        raise BenchError("critical-path attribution needs a trace=True session")
    out: list[RequestAttribution] = []
    for engine in engines:
        idx = _NodeIndex(session, engine.node_id)
        for req in engine.sent_log:
            if not req.done:
                continue
            out.append(_attribute_one(idx, engine.node_id, req))
    out.sort(key=lambda a: (a.submitted_at, a.node, a.seq))
    return out


def _attribute_one(idx: _NodeIndex, node: int, req) -> RequestAttribution:
    t0, t1 = req.submitted_at, req.completed_at
    windows: list[_Window] = []
    order = 0

    def _add(w0: float, w1: float, category: str, rail: str, detail: str = "") -> None:
        nonlocal order
        windows.append(_Window(w0, w1, category, rail, order, detail))
        order += 1

    rdv_id: Optional[int] = None
    own_pios: list[Any] = []
    own_commits: list[Any] = []
    for entry in idx.commits:
        rid = _carries(entry, req.tag, req.seq, req.peer)
        if rid is None:
            continue
        own_commits.append(entry[0])
        if rid >= 0:
            rdv_id = rid
    for entry in idx.pios:
        rid = _carries(entry, req.tag, req.seq, req.peer)
        if rid is None:
            args = entry[0].args or {}
            _add(
                entry[0].t0, entry[0].t1, "rail_contention",
                args.get("rail", ""), "other pio",
            )
            continue
        own_pios.append(entry[0])
        args = entry[0].args or {}
        _add(entry[0].t0, entry[0].t1, "pio_copy", args.get("rail", ""))
        if rid >= 0:
            rdv_id = rid
    own_dmas: list[Any] = []
    if rdv_id is not None:
        for span in idx.dmas.get(rdv_id, []):
            own_dmas.append(span)
            args = span.args or {}
            _add(span.t0, span.t1, "dma", args.get("rail", ""))
    # aggregation wait: committing sweep reached this wrapper, wire not yet
    for cspan in own_commits:
        pio_t0 = min(
            (p.t0 for p in own_pios if p.t0 >= cspan.t0), default=cspan.t1
        )
        if pio_t0 > cspan.t0:
            args = cspan.args or {}
            _add(cspan.t0, pio_t0, "aggregation_wait", args.get("rail", ""))
    # failover: detected loss → relaunch of this request's data
    if rdv_id is not None:
        for span in idx.chunk_losses.get(rdv_id, []):
            nxt = min((d.t0 for d in own_dmas if d.t0 >= span.t1), default=t1)
            args = span.args or {}
            _add(span.t1, nxt, "failover_retry", args.get("rail", ""), "chunk")
    for span, leids, dst in idx.eager_losses:
        if dst == req.peer and (req.tag, req.seq) in leids:
            nxt = min((p.t0 for p in own_pios if p.t0 >= span.t1), default=t1)
            args = span.args or {}
            _add(span.t1, nxt, "failover_retry", args.get("rail", ""), "eager")
    # background noise: other wrappers' commits, packet handling, idle polls
    own_commit_ids = {id(c) for c in own_commits}
    for entry in idx.commits:
        if id(entry[0]) not in own_commit_ids:
            args = entry[0].args or {}
            _add(
                entry[0].t0, entry[0].t1, "rail_contention",
                args.get("rail", ""), "other commit",
            )
    for span in idx.handles:
        args = span.args or {}
        _add(span.t0, span.t1, "rail_contention", args.get("rail", ""), "handle")
    attribution = RequestAttribution(
        node=node, peer=req.peer, tag=req.tag, seq=req.seq,
        size=req.payload.size, submitted_at=t0, completed_at=t1,
    )
    for p0, p1, rail in idx.idle_polls:
        _add(p0, p1, "idle_poll", rail)
        d = max(0.0, min(p1, t1) - max(p0, t0))
        if d > 0.0:
            attribution.poll_tax_by_rail[rail] = (
                attribution.poll_tax_by_rail.get(rail, 0.0) + d
            )
    attribution.segments = _partition(t0, t1, windows)
    return attribution


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


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def rail_timeline(session: "Session", bins: int = 24) -> RailTimeline:
    """Busy-fraction timeline per rail (PIO + DMA, all nodes merged)."""
    if bins < 1:
        raise BenchError(f"bins must be >= 1, got {bins}")
    busy: dict[str, list[tuple[float, float]]] = {}
    t1 = 0.0
    for span in session.spans:
        if span.open or span.name not in ("pio", "dma"):
            continue
        rail = (span.args or {}).get("rail", "?")
        busy.setdefault(rail, []).append((span.t0, span.t1))
        t1 = max(t1, span.t1)
    timeline = RailTimeline(t0=0.0, t1=t1, bin_us=(t1 / bins) if t1 > 0 else 0.0)
    if t1 <= 0.0:
        return timeline
    width = t1 / bins
    for rail, intervals in busy.items():
        merged = _merge_intervals(intervals)
        util = []
        for i in range(bins):
            b0, b1 = i * width, (i + 1) * width
            occupied = sum(
                max(0.0, min(b, b1) - max(a, b0)) for a, b in merged
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
    graph: CausalGraph

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
        out: dict[str, float] = {}
        for attr in self.attributions:
            for rail, us in attr.poll_tax_by_rail.items():
                out[rail] = out.get(rail, 0.0) + us
        return out

    def verify(self, rel_tol: float = 1e-9) -> list[str]:
        """Invariant check: sum-to-total and connectivity, per request.

        Returns human-readable violations (empty = all good); ``repro
        analyze`` exits non-zero on any.
        """
        problems: list[str] = []
        for attr in self.attributions:
            label = f"node{attr.node} {attr.tag}#{attr.seq}"
            if not math.isclose(
                attr.attributed_us, attr.total_us, rel_tol=rel_tol, abs_tol=1e-6
            ):
                problems.append(
                    f"{label}: attributed {attr.attributed_us} != total {attr.total_us}"
                )
            if not attr.connected():
                problems.append(f"{label}: critical path is not a connected chain")
            key = (attr.node, attr.peer, attr.tag, attr.seq)
            if not self.graph.reachable(key):
                problems.append(f"{label}: causal graph not reachable from submit")
        return problems


def analyze_session(
    session: "Session", node_id: Optional[int] = None, bins: int = 24
) -> CriticalPathReport:
    """Full critical-path analysis of one traced, finished session."""
    return CriticalPathReport(
        attributions=attribute_requests(session, node_id),
        timeline=rail_timeline(session, bins=bins),
        graph=build_graph(session, node_id),
    )
