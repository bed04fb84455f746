"""Rendezvous protocol: large segments negotiated, then moved by DMA.

Protocol (per large segment):

1. the strategy decides a *chunking* — which rails carry which byte ranges
   — and calls :meth:`RdvManager.initiate`, which reserves the DMA engine
   of every involved NIC and returns the :class:`RdvReq` control entry the
   strategy embeds in an outgoing packet;
2. the receiver matches the request against its posted receives (parking
   it if none) and answers with :class:`RdvAck`;
3. on ACK the sender launches one DMA flow per chunk; each drained chunk
   releases its NIC's DMA engine (a scheduling opportunity), each delivered
   chunk feeds the receiver's :class:`~repro.core.reassembly.ReassemblyBuffer`;
4. the send request completes when all chunks drained, the receive request
   when the segment is fully reassembled.

Reserving at *initiate* time (not at ACK) means a rail that has been
promised to a transfer is never double-booked by the strategy while the
handshake is in flight.

Failover (fault injection active)
---------------------------------
A chunk can die three ways: the launch hits a NIC whose rail is already
down, the rail is cut mid-transfer, or the data is lost in the
propagation window *after* the sender drained it (when the send request
may already be complete).  In every case the driver reports the loss via
``on_lost`` after the detection delay and :meth:`RdvManager.on_chunk_lost`
retries the chunk — on the first usable rail with an idle DMA engine,
with exponential backoff per attempt, parking (timed re-probe) when no
rail qualifies.  Per-offset drain bookkeeping makes completion exactly
once, and completed send states are kept in ``_out_done`` so a
post-completion loss can still be retried.  The receive side drops exact
duplicates (reassembly returns ``False``) and chunks for already-finished
rendezvous (``_done_in``) instead of raising.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..obs.spans import TRACK_FAULTS
from ..util.errors import ProtocolError
from .packet import DmaChunk, RdvAck, RdvReq
from .reassembly import ReassemblyBuffer
from .request import RecvRequest, SendRequest

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import NodeEngine

__all__ = ["RdvManager", "RdvSendState", "RdvRecvState"]

#: retry backoff: first retry after BASE µs, doubling per attempt, capped.
RETRY_BASE_US = 5.0
RETRY_CAP_US = 160.0
#: re-probe interval while no usable rail has an idle DMA engine.
RETRY_PARK_US = 25.0

#: ``RdvManager._done_in`` before anything was retained (shared, immutable).
_NO_KEYS: frozenset = frozenset()


class RdvSendState:
    """Sender-side bookkeeping for one rendezvous."""

    __slots__ = (
        "req_id",
        "request",
        "chunks",
        "acked",
        "drained_offsets",
        "completed",
        "retry_attempts",
        "started_at",
    )

    def __init__(self, req_id: int, request: SendRequest, chunks: tuple[tuple[int, int, int], ...], now: float):
        self.req_id = req_id
        #: the send request — the segment — this rendezvous moves
        self.request = request
        self.chunks = chunks
        self.acked = False
        #: chunk offsets whose first drain has been counted (a retry of a
        #: post-drain loss drains again without re-counting).
        self.drained_offsets: set[int] = set()
        self.completed = False
        #: per-offset retry count (drives the exponential backoff).
        self.retry_attempts: dict[int, int] = {}
        self.started_at = now

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RdvSend {self.req_id} chunks={len(self.chunks)}"
            f" drained={len(self.drained_offsets)}>"
        )


class RdvRecvState:
    """Receiver-side bookkeeping for one rendezvous."""

    __slots__ = ("src_node", "req_id", "request", "buffer")

    def __init__(self, src_node: int, req_id: int, request: RecvRequest, total_length: int):
        self.src_node = src_node
        self.req_id = req_id
        self.request = request
        self.buffer = ReassemblyBuffer(total_length)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RdvRecv {self.src_node}/{self.req_id} {self.buffer.received_bytes}B>"


class RdvManager:
    """Per-node rendezvous orchestration (both directions)."""

    def __init__(self, engine: "NodeEngine"):
        self.engine = engine
        #: the last RDV_REQ id handed out; ids run 1, 2, ... per node and
        #: only a rendezvous that was initiated takes one
        self._last_req_id = 0
        self._out: dict[int, RdvSendState] = {}
        self._in: dict[tuple[int, int], RdvRecvState] = {}
        #: completed send states, retained only while faults are active so
        #: a chunk lost *after* completion can still be retried.
        self._out_done: dict[int, RdvSendState] = {}
        #: finished receive keys, retained only while faults are active so
        #: late/duplicate chunks are recognized and dropped.
        self._done_in: "set[tuple[int, int]] | frozenset" = _NO_KEYS
        self._m_handshake = engine.session.instruments.handshake_us
        self._m_rx_dropped = None  # fault.rx_dropped, resolved on first drop
        # statistics
        self.initiated = 0
        self.split_count = 0
        self.bytes_by_rail: dict[int, int] = {}

    # -- sender side -------------------------------------------------------
    def initiate(self, request: SendRequest, chunks: list[tuple[int, int, int]]) -> RdvReq:
        """Reserve rails and build the RDV_REQ control entry.

        ``chunks`` is ``[(rail_index, offset, length), ...]``; rails must be
        distinct (one DMA engine each), exist and be DMA-idle.  All or
        nothing: a plan that fails any check reserves no engine and takes
        no request id.
        """
        drivers = self.engine.drivers
        if len(chunks) > 1 and len({c[0] for c in chunks}) != len(chunks):
            raise ProtocolError(f"rendezvous uses a rail twice: {[c[0] for c in chunks]}")
        for rail_index, _off, _length in chunks:
            if not 0 <= rail_index < len(drivers):
                raise ProtocolError(
                    f"rendezvous chunk on rail {rail_index}: node"
                    f" {self.engine.node_id} has {len(drivers)} rails"
                )
            if drivers[rail_index].nic.dma_busy:
                raise ProtocolError(
                    f"rendezvous chunk on rail {rail_index}"
                    f" ({drivers[rail_index].name}): its DMA engine is busy"
                )
        req_id = self._last_req_id + 1
        req = RdvReq(req_id, request.tag, request.seq, request.payload.size, tuple(chunks))
        self._last_req_id = req_id
        for rail_index, _off, length in chunks:
            drivers[rail_index].nic.reserve_dma()
            self.bytes_by_rail[rail_index] = self.bytes_by_rail.get(rail_index, 0) + length
        self._out[req_id] = RdvSendState(req_id, request, req.chunks, self.engine.sim.now)
        self.initiated += 1
        if len(chunks) > 1:
            self.split_count += 1
        return req

    def on_ack(self, ack: RdvAck) -> float:
        """Receiver cleared us: launch one DMA flow per chunk.

        Returns the CPU cost of posting the DMAs (charged by the pump);
        flow ``i`` starts only after the posts of chunks ``0..i`` are done.
        """
        state = self._out.get(ack.req_id)
        if state is None:
            raise ProtocolError(f"RDV_ACK for unknown request {ack.req_id}")
        if state.acked:
            raise ProtocolError(f"duplicate RDV_ACK for request {ack.req_id}")
        state.acked = True
        request = state.request
        payload = request.payload
        drivers = self.engine.drivers
        faulted = self.engine.session.faults is not None
        cost = 0.0
        for rail_index, offset, length in state.chunks:
            cost += drivers[rail_index].start_dma(
                dst_node=request.peer,
                req_id=state.req_id,
                offset=offset,
                # an unsplit segment travels as it is (payloads are values)
                payload=payload if length == payload.size else payload.slice(offset, length),
                delay=cost,
                on_drain=self._chunk_drained,
                on_lost=self._make_on_lost(state, rail_index, offset, length) if faulted else None,
            )
        return cost

    def _make_on_lost(self, state: RdvSendState, rail_index: int, offset: int, length: int):
        return lambda engine_reserved: self.on_chunk_lost(
            state, offset, length, rail_index, engine_reserved
        )

    def _chunk_drained(self, chunk: DmaChunk) -> None:
        """One chunk left its NIC: free the engine, maybe complete the send."""
        chunk.driver.nic.release_dma()
        state = self._out.get(chunk.req_id)
        if state is None:
            # a retried chunk drained after its rendezvous completed
            state = self._out_done[chunk.req_id]
        offset = chunk.offset
        if offset in state.drained_offsets:
            # retry of a chunk lost *after* its first drain: only the
            # engine release matters, completion was already counted
            return
        state.drained_offsets.add(offset)
        if state.completed or len(state.drained_offsets) < len(state.chunks):
            return
        state.completed = True
        del self._out[state.req_id]
        if self.engine.session.faults is not None:
            self._out_done[state.req_id] = state
        now = self.engine.sim.now
        self._m_handshake.observe(now - state.started_at)
        spans = self.engine.spans
        if spans.enabled:
            spans.add(
                self.engine.node_id,
                "rdv",
                f"rdv#{state.req_id}",
                "rdv",
                state.started_at,
                now,
                {
                    "req_id": state.req_id,
                    "tag": state.request.tag,
                    "seq": state.request.seq,
                    "bytes": state.request.payload.size,
                    "chunks": len(state.chunks),
                    "rails": [c[0] for c in state.chunks],
                    "dst": state.request.peer,
                },
            )
        state.request._complete()

    # -- failover ----------------------------------------------------------
    def on_chunk_lost(
        self,
        state: RdvSendState,
        offset: int,
        length: int,
        rail_index: int,
        engine_reserved: bool,
    ) -> None:
        """One DMA chunk died on ``rail_index``: retry with backoff."""
        if engine_reserved:
            # the dead transfer still held its sending DMA engine (lost
            # at launch or mid-flight); releasing wakes the pump
            self.engine.driver(rail_index).nic.release_dma()
        self.engine.fault_retry_counter(rail_index).add()
        attempt = state.retry_attempts.get(offset, 0)
        state.retry_attempts[offset] = attempt + 1
        delay = min(RETRY_BASE_US * (2.0 ** attempt), RETRY_CAP_US)
        spans = self.engine.spans
        if spans.enabled:
            # causal retry edge: detected chunk loss → backoff → relaunch
            spans.instant(
                self.engine.node_id, TRACK_FAULTS, "chunk_lost", "fault",
                self.engine.sim.now,
                {
                    "req_id": state.req_id,
                    "offset": offset,
                    "rail": self.engine.driver(rail_index).name,
                    "attempt": attempt + 1,
                    "backoff_us": delay,
                    "dst": state.request.peer,
                },
            )
        self.engine.sim.schedule(delay, self._retry_chunk, state, offset, length)

    def _retry_chunk(self, state: RdvSendState, offset: int, length: int) -> None:
        """Re-send one lost chunk on the best rail currently available.

        Fastest usable rail with an idle DMA engine wins (failover: the
        chunk need not ride its original rail).  When none qualifies the
        retry parks on a timed re-probe — fault plans guarantee outages
        are finite, so this always terminates.
        """
        engine = self.engine
        for idx in engine._order:
            drv = engine.drivers[idx]
            if drv.usable and drv.dma_idle:
                drv.nic.reserve_dma()
                if engine.spans.enabled:
                    engine.spans.instant(
                        engine.node_id, TRACK_FAULTS, "chunk_retry", "fault",
                        engine.sim.now,
                        {"req_id": state.req_id, "offset": offset, "rail": drv.name},
                    )
                drv.start_dma(
                    dst_node=state.request.peer,
                    req_id=state.req_id,
                    offset=offset,
                    payload=state.request.payload.slice(offset, length),
                    delay=0.0,
                    on_drain=self._chunk_drained,
                    on_lost=self._make_on_lost(state, idx, offset, length),
                )
                return
        if engine.spans.enabled:
            engine.spans.instant(
                engine.node_id, TRACK_FAULTS, "chunk_park", "fault", engine.sim.now,
                {"req_id": state.req_id, "offset": offset, "park_us": RETRY_PARK_US},
            )
        engine.sim.schedule(RETRY_PARK_US, self._retry_chunk, state, offset, length)

    def send_request(self, req_id: int):
        """The outstanding send request behind one RDV_REQ id (or None)."""
        state = self._out.get(req_id)
        return None if state is None else state.request

    # -- receiver side -----------------------------------------------------
    def accept(self, src_node: int, rdv: RdvReq, request: RecvRequest) -> None:
        """A matched RDV_REQ: set up reassembly and queue the ACK."""
        key = (src_node, rdv.req_id)
        if key in self._in:
            raise ProtocolError(f"duplicate rendezvous {key}")
        self._in[key] = RdvRecvState(src_node, rdv.req_id, request, rdv.total_length)
        self.engine.post_ctrl(src_node, RdvAck(rdv.req_id))

    def on_chunk(self, chunk: DmaChunk) -> Optional[RecvRequest]:
        """A DMA chunk landed; returns the receive request if now complete.

        Duplicate chunks (injected dups, or a retry racing its presumed-
        lost original) and chunks for an already-finished rendezvous are
        dropped and counted, never raised: the recovery path makes both
        legitimate arrivals.
        """
        key = (chunk.src_node, chunk.req_id)
        state = self._in.get(key)
        if state is None:
            if key in self._done_in:
                self._count_rx_dropped()
                return None
            raise ProtocolError(f"DMA chunk for unknown rendezvous {key}")
        if not state.buffer.add(chunk.offset, chunk.payload):
            self._count_rx_dropped()
            return None
        if state.buffer.complete:
            del self._in[key]
            if self.engine.session.faults is not None:
                if self._done_in is _NO_KEYS:
                    self._done_in = set()
                self._done_in.add(key)
            state.request._deliver(state.buffer.assemble())
            return state.request
        return None

    def _count_rx_dropped(self) -> None:
        if self._m_rx_dropped is None:
            self._m_rx_dropped = self.engine.session.metrics.counter("fault.rx_dropped")
        self._m_rx_dropped.add()

    # -- introspection -----------------------------------------------------
    @property
    def outstanding_out(self) -> int:
        return len(self._out)

    @property
    def outstanding_in(self) -> int:
        return len(self._in)
