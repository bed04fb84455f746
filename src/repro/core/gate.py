"""Gates and segments.

A **gate** is NewMadeleine's name for a connection to one peer node; it
owns the per-tag send sequence counters (the receiver reconstructs message
order per ``(gate, tag)`` from these, which is what makes out-of-order
multi-rail delivery safe).

A **segment** is the scheduling unit: each ``pack()``/``isend()`` call
submits one segment; the optimizing scheduler is free to aggregate several
segments into one packet or to split one segment into several chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..util.errors import ProtocolError
from .packet import Payload
from .request import SendRequest

__all__ = ["Gate", "Segment"]


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


class Gate:
    """Per-peer connection state on the sending side."""

    __slots__ = ("local_node", "peer_node", "_seq_out", "segments_submitted", "bytes_submitted")

    def __init__(self, local_node: int, peer_node: int):
        if local_node == peer_node:
            raise ProtocolError(f"gate to self (node {local_node})")
        self.local_node = local_node
        self.peer_node = peer_node
        self._seq_out: dict[int, int] = {}
        self.segments_submitted = 0
        self.bytes_submitted = 0

    def next_seq(self, tag: int) -> int:
        """Allocate the next send sequence number for ``tag``."""
        seq = self._seq_out.get(tag, 0)
        self._seq_out[tag] = seq + 1
        return seq

    def note_submit(self, nbytes: int) -> None:
        self.segments_submitted += 1
        self.bytes_submitted += nbytes

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Gate {self.local_node}->{self.peer_node} segs={self.segments_submitted}>"
