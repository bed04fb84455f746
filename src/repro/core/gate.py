"""Segments and the channels they are numbered on.

A **gate** — NewMadeleine's connection to one peer — has no object here:
all it must remember is one counter per **channel**, a ``(peer, tag)``
pair, on each side.  ``NodeEngine._seq_out`` numbers segments in submission
order, :class:`~repro.core.matching.MatchingTable` numbers receives in
posting order, and the nth send on a channel matches the nth receive —
which is what makes out-of-order multi-rail delivery safe.  A channel is
one table entry from its first use, nothing before.

A **segment** is the scheduling unit: each ``pack()``/``isend()`` call
submits one segment; the optimizing scheduler is free to aggregate several
segments into one packet or to split one segment into several chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .packet import Payload
from .request import SendRequest

__all__ = ["Segment"]


@dataclass(slots=True)
class Segment:
    """One application send unit, queued for the strategy."""

    dst_node: int
    tag: int
    seq: int
    payload: Payload
    request: SendRequest
    submitted_at: float

    @property
    def size(self) -> int:
        return self.payload.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Segment ->{self.dst_node} tag={self.tag} seq={self.seq} {self.size}B>"
