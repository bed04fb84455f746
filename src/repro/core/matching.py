"""Receive-side matching: (peer, tag, sequence) → posted receive.

Sequence numbers are allocated independently on both sides — the sender
numbers segments per ``(peer, tag)`` in submission order, the receiver
numbers posted receives per ``(peer, tag)`` in posting order — so the nth
send on a logical channel always matches the nth receive, no matter how
packets were aggregated, split, reordered across rails, or delivered out
of order.

A channel is one int on both sides, ``tag * n_nodes + peer``: with
``0 <= peer < n_nodes`` and ``tag >= 0`` it is injective (``divmod(chan,
n_nodes)`` gives back ``(tag, peer)``), and a dict of int keys and int
values is never tracked by the cyclic collector, where a dict of
``(peer, tag)`` tuples is.

A channel's waiting receives are one entry of ``_posted``: the
:class:`RecvRequest` itself while one waits (an arrival matches it when
``request.seq == seq``), else a deque covering seqs ``[_recv_seq[chan] -
len(q), _recv_seq[chan])`` in order, ``None`` where a seq matched at post
time; its head is never ``None``, and the entry goes once nothing waits.
A waiting receive costs the table one 8-byte slot, and no key of its own.

Three arrival-vs-post races are handled:

* receive posted first (the common ping-pong case);
* eager data arriving first — parked in the *unexpected queue* (the extra
  copy real libraries pay; the engine charges it);
* rendezvous request arriving first — parked until the receive is posted,
  at which point the engine is told to emit the RDV_ACK.

Wildcard receives
-----------------
A receive posted with :data:`ANY_SOURCE` matches the next message of its
tag from *any* peer.  Wildcard matching is per tag FIFO over arrivals,
with one crucial twist for multi-rail transports: packets from one peer
can arrive out of order (different rails!), so an arrival only becomes
*eligible* once every earlier sequence number of its ``(peer, tag)``
channel has arrived — the per-channel **cursor**.  This preserves the
non-overtaking guarantee per source that MPI-style layers rely on.

Specific-source and wildcard receives must not be mixed on one tag (the
combined ordering semantics would be ambiguous); mixing raises
:class:`MatchingError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Literal, Optional, Union

from ..util.errors import MatchingError
from .packet import Payload, RdvReq
from .request import RecvRequest

__all__ = ["MatchingTable", "PostOutcome", "ANY_SOURCE"]

#: wildcard peer for :meth:`MatchingTable.post_recv` / ``Interface.irecv``.
ANY_SOURCE = -1

Key = tuple[int, int, int]  # (peer node, tag, seq)
Chan = int  # tag * n_nodes + peer node
#: a channel's waiting receives: the one request, or a deque with ``None``
#: for each seq that matched at post time (see the module docstring)
Waiting = Union[RecvRequest, Deque[Optional[RecvRequest]]]
#: one match an arrival produced, a plain tuple ``(request, payload, rdv)``:
#: deliver ``payload`` to ``request`` when ``rdv`` is None, else accept the
#: rendezvous ``rdv`` from ``request.peer`` (the request's ``peer`` and
#: ``seq`` are final by then — a wildcard learns them at match time)
Match = tuple[RecvRequest, Optional[Payload], Optional[RdvReq]]


@dataclass(slots=True)
class PostOutcome:
    """Result of posting a receive.

    ``kind`` is ``"posted"`` (waiting), ``"eager"`` (unexpected data was
    already here; ``payload`` is set) or ``"rdv"`` (a rendezvous request
    was already here; ``rdv`` is set and the caller must emit the ACK).
    """

    kind: Literal["posted", "eager", "rdv"]
    payload: Optional[Payload] = None
    rdv: Optional[RdvReq] = None
    rdv_src: Optional[int] = None


#: the outcome of every receive that found nothing waiting (shared: never
#: mutated, so a plain post allocates no record)
_POSTED = PostOutcome("posted")


@dataclass(slots=True)
class _Arrival:
    """A message announcement waiting for its receive."""

    peer: int
    tag: int
    seq: int
    kind: Literal["eager", "rdv"]
    payload: Optional[Payload] = None
    rdv: Optional[RdvReq] = None
    consumed: bool = False

    @property
    def key(self) -> Key:
        return (self.peer, self.tag, self.seq)


class MatchingTable:
    """Per-node receive matching state.

    ``n_nodes`` bounds the peers it hears from (node ids ``0 ..
    n_nodes - 1``), which keeps the channel key injective; the default
    fits a table that hears from node 0 only.
    """

    def __init__(self, n_nodes: int = 1) -> None:
        self._n_nodes = n_nodes
        self._posted: dict[Chan, Waiting] = {}
        self._recv_seq: dict[Chan, int] = {}
        #: unconsumed arrivals by exact key (the unexpected queue)
        self._parked: dict[Key, _Arrival] = {}
        #: arrivals eligible for wildcard matching, per tag, FIFO (kept
        #: for wildcard tags and tags with no posted receive yet)
        self._ready: dict[int, Deque[_Arrival]] = {}
        #: out-of-order arrivals held until their channel cursor catches up
        self._stash: dict[Chan, dict[int, _Arrival]] = {}
        self._cursor: dict[Chan, int] = {}
        #: waiting wildcard receives per tag, FIFO
        self._any_posted: dict[int, Deque[RecvRequest]] = {}
        #: per-tag matching discipline, fixed by the first posted receive
        self._mode: dict[int, str] = {}

    # ------------------------------------------------------------------ #
    @property
    def posted_count(self) -> int:
        exact = sum(
            len(w) - w.count(None) if w.__class__ is deque else 1
            for w in self._posted.values()
        )
        return exact + sum(len(q) for q in self._any_posted.values())

    @property
    def unexpected_count(self) -> int:
        return sum(1 for a in self._parked.values() if a.kind == "eager") + sum(
            1
            for stash in self._stash.values()
            for a in stash.values()
            if a.kind == "eager"
        )

    @property
    def pending_rdv_count(self) -> int:
        return sum(1 for a in self._parked.values() if a.kind == "rdv") + sum(
            1
            for stash in self._stash.values()
            for a in stash.values()
            if a.kind == "rdv"
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _set_mode(self, tag: int, mode: str) -> None:
        """Fix or check ``tag``'s discipline (callers skip the call when
        one dict read shows it is already ``mode``)."""
        current = self._mode.get(tag)
        if current is None:
            self._mode[tag] = mode
            if mode == "exact":
                # only wildcard receives pop the ready queue and this tag will
                # never post one: kept, it would hold every consumed arrival
                self._ready.pop(tag, None)
        elif current != mode:
            raise MatchingError(
                f"tag {tag}: cannot mix ANY_SOURCE and specific-source receives"
            )

    def _park(self, arrival: _Arrival) -> None:
        """An in-order arrival becomes visible to both matching paths (the
        wildcard one unless the tag's first receive ruled wildcards out)."""
        self._parked[arrival.key] = arrival
        tag = arrival.tag
        if self._mode.get(tag) != "exact":
            queue = self._ready.get(tag)
            if queue is None:
                queue = self._ready[tag] = deque()
            queue.append(arrival)

    def _advance_cursor(self, chan: Chan, arrival: _Arrival) -> None:
        """Record an in-order arrival and release any stashed successors;
        a stash emptied here goes with its last entry."""
        cursor = arrival.seq + 1
        self._park(arrival)
        stash = self._stash.get(chan)
        if stash is not None:
            while (nxt := stash.pop(cursor, None)) is not None:
                cursor += 1
                self._park(nxt)
            if not stash:
                del self._stash[chan]
        self._cursor[chan] = cursor

    def _pop_ready(self, tag: int) -> Optional[_Arrival]:
        queue = self._ready.get(tag)
        while queue:
            arrival = queue.popleft()
            if not arrival.consumed:
                return arrival
        return None

    def _consume(self, arrival: _Arrival) -> None:
        arrival.consumed = True
        self._parked.pop(arrival.key, None)

    def _drain_wildcards(self, tag: int) -> list[Match]:
        matches = []
        queue = self._any_posted.get(tag)
        while queue:
            arrival = self._pop_ready(tag)
            if arrival is None:
                break
            request = queue.popleft()
            self._consume(arrival)
            # a wildcard request learns its actual source and sequence
            request.peer = arrival.peer
            request.seq = arrival.seq
            matches.append((request, arrival.payload, arrival.rdv))
        return matches

    # ------------------------------------------------------------------ #
    # posting receives
    # ------------------------------------------------------------------ #
    def post_recv(self, peer: int, tag: int, request: RecvRequest) -> PostOutcome:
        """Register a receive; assigns its sequence number.

        ``peer`` may be :data:`ANY_SOURCE`; the request's ``peer``/``seq``
        are then filled in at match time.
        """
        if peer == ANY_SOURCE:
            return self._post_wildcard(tag, request)
        if self._mode.get(tag) != "exact":
            self._set_mode(tag, "exact")
        chan = tag * self._n_nodes + peer
        seq = self._recv_seq.get(chan, 0)
        self._recv_seq[chan] = seq + 1
        parked = self._parked
        arrival = parked.get((peer, tag, seq)) if parked else None
        stash = self._stash.get(chan)
        if arrival is None and stash:
            # the arrival may still sit in the out-of-order stash
            arrival = stash.get(seq)
        waiting = self._posted.get(chan)
        if arrival is not None:
            self._consume(arrival)
            request.seq = arrival.seq  # the sender's int, not an equal copy
            if stash and stash.pop(seq, None) is not None and not stash:
                del self._stash[chan]
            if waiting.__class__ is deque:
                waiting.append(None)  # the queue covers every seq up to ours
            if arrival.kind == "eager":
                return PostOutcome("eager", payload=arrival.payload)
            return PostOutcome("rdv", rdv=arrival.rdv, rdv_src=arrival.peer)
        request.seq = seq
        if waiting is None:
            self._posted[chan] = request
        elif waiting.__class__ is deque:
            waiting.append(request)
        else:
            # a second receive waits: the seqs between the two matched at post
            queue = self._posted[chan] = deque((waiting,))
            queue.extend([None] * (seq - waiting.seq - 1))
            queue.append(request)
        return _POSTED

    def _post_wildcard(self, tag: int, request: RecvRequest) -> PostOutcome:
        if self._mode.get(tag) != "any":
            self._set_mode(tag, "any")
        arrival = self._pop_ready(tag)
        if arrival is not None:
            self._consume(arrival)
            request.peer = arrival.peer
            request.seq = arrival.seq
            if arrival.kind == "eager":
                return PostOutcome("eager", payload=arrival.payload)
            return PostOutcome("rdv", rdv=arrival.rdv, rdv_src=arrival.peer)
        queue = self._any_posted.get(tag)
        if queue is None:
            queue = self._any_posted[tag] = deque()
        queue.append(request)
        return _POSTED

    # ------------------------------------------------------------------ #
    # arrivals
    # ------------------------------------------------------------------ #
    def arrive(
        self,
        peer: int,
        tag: int,
        seq: int,
        kind: Literal["eager", "rdv"],
        payload: Optional[Payload] = None,
        rdv: Optional[RdvReq] = None,
    ) -> list[Match]:
        """Process one arrival; returns every match it enables, each a
        plain :data:`Match` tuple.

        With specific-source receives the list has zero (parked) or one
        entry; a wildcard tag may release a whole chain when this arrival
        fills the gap the channel cursor was stuck on.
        """
        chan = tag * self._n_nodes + peer
        parked = self._parked
        stash = self._stash.get(chan)
        if (parked and (peer, tag, seq) in parked) or (stash and seq in stash):
            raise MatchingError(f"duplicate arrival for {(peer, tag, seq)}")
        # 1. exact posted receive wins immediately (any order of seqs) —
        #    the common case, which never needs an _Arrival record
        waiting = self._posted.get(chan)
        if waiting is not None:
            request = None
            if waiting.__class__ is not deque:
                if waiting.seq == seq:
                    request = waiting
                    del self._posted[chan]
            else:
                index = seq - self._recv_seq[chan] + len(waiting)
                if index == 0:
                    request = waiting.popleft()
                    while waiting and waiting[0] is None:
                        waiting.popleft()
                    if not waiting:
                        del self._posted[chan]
                elif 0 < index < len(waiting):
                    request = waiting[index]
                    waiting[index] = None
            if request is not None:
                # posted for exactly this seq: peer and seq are already
                # right, and the seq becomes the sender's int (the
                # request's is freed)
                request.seq = seq
                return [(request, payload, rdv)]
        # 2. in-order bookkeeping for the wildcard path
        arrival = _Arrival(peer, tag, seq, kind, payload, rdv)
        cursor = self._cursor.get(chan, 0)
        if seq == cursor:
            self._advance_cursor(chan, arrival)
        elif seq > cursor:
            if stash is None:
                stash = self._stash[chan] = {}
            stash[seq] = arrival
        else:
            raise MatchingError(
                f"arrival {(peer, tag, seq)} repeats a delivered sequence"
            )
        # 3. waiting wildcard receives drain whatever just became eligible
        return self._drain_wildcards(tag)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MatchingTable posted={self.posted_count}"
            f" unexpected={self.unexpected_count} rdv={self.pending_rdv_count}>"
        )
