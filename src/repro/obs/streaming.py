"""Streaming span tracing: bounded memory, deterministic sampling.

The PR 1 :class:`~repro.obs.spans.SpanRecorder` buffers every span in
memory — O(events) — which caps how large a traced run can get.  This
module keeps the recorder API (scheduler, drivers, rendezvous, faults,
exporters and :mod:`~repro.obs.critical_path` all work unchanged) while
bounding record-time memory:

* :class:`StreamingTracer` — a drop-in :class:`SpanRecorder` subclass
  that holds at most ``window`` *closed* spans in memory and spills the
  overflow incrementally to a JSONL stream on disk (open spans live only
  on the nesting stacks, bounded by nesting depth).  Queries and exports
  transparently replay the spilled stream merged with the in-memory
  window, sorted by span id — bit-identical to what an unbounded
  recorder would have held;
* :class:`SpanSampler` — deterministic head/rate span sampling.  The
  rate decision hashes the span's *identity* ``(seed, node, track, name,
  t0)``, never call order or wall clock, and children inherit their
  root's decision, so the same workload run serially or under ``--jobs``
  keeps exactly the same sample, bit for bit;
* :func:`load_span_stream` — rebuild a recorder from a spilled stream
  for offline analysis.

Sampling drops whole sweep subtrees coherently, and the critical-path
attribution invariants (sum-to-total, contiguous chain — see
:meth:`CriticalPathReport.verify
<repro.obs.critical_path.CriticalPathReport.verify>`) hold for any span
subset by construction, so a sampled trace still verifies clean; the
property suite in ``tests/property/test_streaming_prop.py`` pins both
guarantees.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Iterator, Optional

from ..util.config import read_json_objects
from .spans import Span, SpanError, SpanRecorder

__all__ = [
    "STREAM_SCHEMA_VERSION",
    "SpanSampler",
    "StreamingTracer",
    "load_span_stream",
]

#: first line of every span stream; bump on incompatible layout changes.
STREAM_SCHEMA_VERSION = "repro.span_stream/1"

#: hash-space denominator of the rate decision (crc32 of the identity key).
_RATE_SPACE = 0xFFFFFFFF


class SpanSampler:
    """Deterministic span sampling policy.

    ``head`` keeps the first ``head`` spans of the run (by span id);
    ``rate`` keeps a pseudo-random fraction of span *trees*, decided by a
    seeded hash of the root span's identity.  Both compose: a span is
    kept only if it passes every configured stage.  ``SpanSampler.off()``
    keeps everything.
    """

    def __init__(
        self,
        rate: float = 1.0,
        head: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
        if head is not None and head < 0:
            raise ValueError(f"head must be >= 0, got {head}")
        self.rate = rate
        self.head = head
        self.seed = seed

    @classmethod
    def off(cls) -> "SpanSampler":
        return cls(rate=1.0, head=None, seed=0)

    @property
    def active(self) -> bool:
        return self.rate < 1.0 or self.head is not None

    def keep_root(self, sid: int, node: int, track: str, name: str, t0: float) -> bool:
        """Decide a root span (children inherit the root's decision)."""
        if self.head is not None and sid >= self.head:
            return False
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        key = f"{self.seed}:{node}:{track}:{name}:{t0!r}".encode()
        return zlib.crc32(key) <= self.rate * _RATE_SPACE

    def to_dict(self) -> dict[str, Any]:
        return {"rate": self.rate, "head": self.head, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SpanSampler":
        return cls(
            rate=d.get("rate", 1.0), head=d.get("head"), seed=d.get("seed", 0)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SpanSampler rate={self.rate} head={self.head} seed={self.seed}>"


class StreamingTracer(SpanRecorder):
    """A :class:`SpanRecorder` that spills closed spans to disk.

    Recording keeps at most ``window`` closed spans buffered; the
    overflow is appended to ``path`` as JSONL (one
    :meth:`~repro.obs.spans.Span.to_dict` object per line, after a
    schema header).  Open spans are tracked only on the nesting stacks.
    Iterating the tracer — and therefore every query helper, exporter
    and the critical-path analyzer — replays spilled + buffered spans in
    span-id order, exactly the sequence an unbounded recorder holds.

    Use as a context manager, or call :meth:`close` when the run is done
    to flush the trailing window to disk (queries keep working after
    close; recording does not).
    """

    def __init__(
        self,
        path: str,
        window: int = 1024,
        sampler: Optional[SpanSampler] = None,
    ) -> None:
        super().__init__(enabled=True)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.path = path
        self.window = window
        self.sampler = sampler if sampler is not None else SpanSampler.off()
        # self.spans (inherited) holds only closed, kept spans not yet
        # spilled, in close order; its length never exceeds ``window``.
        #: keep decisions of spans between _retain and _on_close, by sid.
        self._keep: dict[int, bool] = {}
        self.spilled = 0
        self.sampled_out = 0
        self.peak_buffered = 0
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh: Optional[Any] = open(path, "w")
        self._write_header()

    def _write_header(self) -> None:
        assert self._fh is not None
        self._fh.write(
            json.dumps(
                {
                    "schema": STREAM_SCHEMA_VERSION,
                    "window": self.window,
                    "sampler": self.sampler.to_dict(),
                },
                sort_keys=True,
            )
            + "\n"
        )
        self._fh.flush()

    # -- recording hooks -----------------------------------------------------
    def _retain(self, span: Span) -> None:
        if span.parent is not None:
            keep = self._keep.get(span.parent, True)
        else:
            keep = self.sampler.keep_root(
                span.sid, span.node, span.track, span.name, span.t0
            )
        # add()-style spans close immediately; the decision is stashed for
        # the _on_close that follows in the same call.
        self._keep[span.sid] = keep

    def _on_close(self, span: Span) -> None:
        keep = self._keep.pop(span.sid, True)
        if not keep:
            self.sampled_out += 1
            return
        if self._fh is None:
            raise SpanError(f"StreamingTracer({self.path!r}) is closed")
        self.spans.append(span)
        while len(self.spans) > self.window:
            self._spill(self.spans.pop(0))
        if len(self.spans) > self.peak_buffered:
            self.peak_buffered = len(self.spans)

    def _spill(self, span: Span) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self.spilled += 1

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> str:
        """Flush the remaining window to disk; returns the stream path."""
        if self._fh is not None:
            while self.spans:
                self._spill(self.spans.pop(0))
            self._fh.close()
            self._fh = None
        return self.path

    def __enter__(self) -> "StreamingTracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def clear(self) -> None:
        if self._fh is None:
            raise SpanError(f"StreamingTracer({self.path!r}) is closed")
        super().clear()
        self._keep.clear()
        self.spilled = 0
        self.sampled_out = 0
        self.peak_buffered = 0
        self._fh.seek(0)
        self._fh.truncate()
        self._write_header()

    # -- queries -------------------------------------------------------------
    def _replay(self) -> list[Span]:
        """Spilled + buffered spans, sorted by sid (analysis-time only)."""
        out: list[Span] = []
        if self.spilled:
            if self._fh is not None:
                self._fh.flush()
            out = load_span_stream(self.path).spans
        out.extend(self.spans)
        out.sort(key=lambda s: s.sid)
        return out

    def __iter__(self) -> Iterator[Span]:
        return iter(self._replay())

    def __len__(self) -> int:
        return self.spilled + len(self.spans)

    def stats(self) -> dict[str, Any]:
        """Record-time accounting, for reports and the event log."""
        return {
            "path": self.path,
            "window": self.window,
            "buffered": len(self.spans),
            "peak_buffered": self.peak_buffered,
            "spilled": self.spilled,
            "sampled_out": self.sampled_out,
            "sampler": self.sampler.to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        state = "on" if self.enabled else "off"
        return (
            f"<StreamingTracer {state} window={self.window}"
            f" buffered={len(self.spans)} spilled={self.spilled}"
            f" sampled_out={self.sampled_out}>"
        )


def load_span_stream(path: str) -> SpanRecorder:
    """Rebuild an in-memory recorder from a spilled span stream.

    The result holds the spans in span-id order and answers every
    :class:`SpanRecorder` query; reopened streams are read-only.
    """
    rec = SpanRecorder(enabled=False)
    objects = read_json_objects(path, SpanError, lines=True)
    schema = objects[0][1].get("schema") if objects else None
    if schema != STREAM_SCHEMA_VERSION:
        raise SpanError(
            f"{path}: unsupported span stream schema {schema!r}"
            f" (want {STREAM_SCHEMA_VERSION!r})"
        )
    for where, span in objects[1:]:
        try:
            rec.spans.append(Span.from_dict(span))
        except KeyError as exc:
            raise SpanError(f"{where}: span lacks field {exc}") from None
    rec.spans.sort(key=lambda s: s.sid)
    return rec
