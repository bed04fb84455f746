"""The span stream: deterministic sampling and the one span file.

Spans are recorded in memory by :class:`~repro.obs.spans.SpanRecorder`;
a run that keeps them writes them once, afterwards:

* :class:`SpanSampler` — deterministic head/rate span sampling.  The
  rate decision hashes a root span's *identity* ``(seed, node, track,
  name, t0)``, never call order or wall clock, so the same workload run
  serially or under ``--jobs`` keeps exactly the same sample, bit for
  bit;
* :func:`sampled_spans` — the closed spans a sampler keeps: a root is
  decided by :meth:`SpanSampler.keep_root`, every other span inherits its
  parent's decision, so sampling drops whole sweep subtrees coherently;
* :func:`write_span_stream` / :func:`load_span_stream` — the span stream
  file (a schema header, then one :meth:`~repro.obs.spans.Span.to_dict`
  per line) and its one reader, for offline analysis.

The critical-path attribution invariants (sum-to-total, contiguous
chain — see :meth:`CriticalPathReport.verify
<repro.obs.critical_path.CriticalPathReport.verify>`) hold for any span
subset by construction, so a sampled trace still verifies clean; the
property suite in ``tests/property/test_streaming_prop.py`` pins both
guarantees.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Iterable, Optional

from ..util.config import read_json_objects
from .spans import Span, SpanError, SpanRecorder

__all__ = [
    "STREAM_SCHEMA_VERSION",
    "SpanSampler",
    "sampled_spans",
    "write_span_stream",
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
    kept only if it passes every configured stage.  The defaults keep
    everything.
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

    def keep_root(self, span: Span) -> bool:
        """Decide a root span (children inherit the root's decision)."""
        if self.head is not None and span.sid >= self.head:
            return False
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        key = f"{self.seed}:{span.node}:{span.track}:{span.name}:{span.t0!r}".encode()
        return zlib.crc32(key) <= self.rate * _RATE_SPACE

    def to_dict(self) -> dict[str, Any]:
        return {"rate": self.rate, "head": self.head, "seed": self.seed}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SpanSampler rate={self.rate} head={self.head} seed={self.seed}>"


def sampled_spans(spans: Iterable[Span], sampler: SpanSampler) -> list[Span]:
    """The closed spans of ``spans`` (in span-id order, as a recorder
    holds them) that ``sampler`` keeps, in the same order."""
    keep: dict[int, bool] = {}
    kept = []
    for span in spans:
        if span.parent is None:
            keep[span.sid] = sampler.keep_root(span)
        else:
            keep[span.sid] = keep[span.parent]
        if keep[span.sid] and span.t1 is not None:
            kept.append(span)
    return kept


def write_span_stream(path: str, spans: Iterable[Span], sampler: SpanSampler) -> None:
    """Write ``spans`` to ``path`` as a span stream: the schema header
    (naming the ``sampler`` that chose them), then one span per line."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    header = {"schema": STREAM_SCHEMA_VERSION, "sampler": sampler.to_dict()}
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for span in spans:
            fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def load_span_stream(path: str) -> SpanRecorder:
    """Rebuild an in-memory recorder from a span stream.

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
        if type(span["sid"]) is not int:  # the sort key below
            raise SpanError(f"{where}: span sid {span['sid']!r} is not an int")
    rec.spans.sort(key=lambda s: s.sid)
    return rec
