"""Exporter: finished sessions → Chrome trace-event JSON.

The Chrome trace-event format (the JSON flavour understood by Perfetto,
``chrome://tracing`` and speedscope) maps naturally onto the span model:

* one *process* per simulated node (``pid`` = node id);
* one *thread* per track (``tid``): the progress pump, one lane per rail
  (PIO vs DMA distinguished by category and colour), and the rendezvous
  lane;
* spans become complete (``"ph": "X"``) events with microsecond ``ts`` /
  ``dur`` — convenient, since the simulator's clock already runs in
  microseconds.

The metrics snapshot rides along in the Chrome file's ``otherData``; raw
spans, one per line, are the span stream of :mod:`repro.obs.streaming`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Union

from .spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..core.session import Session

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]

#: stable Chrome colour names per span category (Perfetto falls back
#: gracefully on unknown names, so these are a hint, not a contract).
_CNAMES = {
    "pio": "thread_state_running",   # CPU-bound: the paper's PIO monopoly
    "dma": "rail_response",          # background bulk transfer
    "poll": "grey",
    "handle": "thread_state_runnable",
    "commit": "heap_dump_stack_frame",
    "rdv": "startup",
}


def _recorder_of(source: Union["Session", SpanRecorder]) -> SpanRecorder:
    if isinstance(source, SpanRecorder):
        return source
    rec = getattr(source, "spans", None)
    if not isinstance(rec, SpanRecorder):
        raise TypeError(f"cannot export spans from {type(source).__name__}")
    return rec


def _track_order(track: str) -> tuple[int, str]:
    """pump first, rails next (alphabetical), rdv last."""
    if track == "pump":
        return (0, "")
    if track.startswith("rail:"):
        return (1, track)
    return (2, track)


def to_chrome_trace(source: Union["Session", SpanRecorder]) -> dict[str, Any]:
    """Serialize recorded spans to a Chrome trace-event JSON object."""
    rec = _recorder_of(source)
    registry = getattr(source, "metrics", None)
    metrics = registry.snapshot() if registry is not None else {}
    events: list[dict[str, Any]] = []
    # stable tid assignment per (node, track)
    tids: dict[tuple[int, str], int] = {}
    for node, track in sorted(rec.tracks(), key=lambda nt: (nt[0], _track_order(nt[1]))):
        tid = sum(1 for (n, _t) in tids if n == node)
        tids[(node, track)] = tid
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": node,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for node in sorted({n for n, _t in tids}):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": node,
                "tid": 0,
                "args": {"name": f"node{node}"},
            }
        )
    for span in rec:
        if span.open:
            continue  # an aborted run may leave the last sweep open
        ev: dict[str, Any] = {
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "pid": span.node,
            "tid": tids[(span.node, span.track)],
            "ts": span.t0,
            "dur": span.t1 - span.t0,  # type: ignore[operator]
        }
        cname = _CNAMES.get(span.cat)
        if cname is not None:
            ev["cname"] = cname
        if span.args:
            ev["args"] = span.args
        events.append(ev)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "clock": "simulated-microseconds",
            "metrics": metrics,
        },
    }


def write_chrome_trace(source: Union["Session", SpanRecorder], path: str) -> int:
    """Write the Chrome trace JSON; returns the number of span events."""
    doc = to_chrome_trace(source)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return sum(1 for e in doc["traceEvents"] if e["ph"] == "X")


def validate_chrome_trace(doc: Any) -> list[str]:
    """Structural checks on a trace object; returns human-readable problems."""
    problems: list[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["not an object with a traceEvents list"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "i"):
            problems.append(f"event {i}: unexpected phase {ph!r}")
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            problems.append(f"event {i}: pid/tid must be integers")
        if ph == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"event {i}: bad ts {ts!r}")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: bad dur {dur!r}")
            if not ev.get("name"):
                problems.append(f"event {i}: missing name")
    return problems
