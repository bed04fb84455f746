"""Wire-level data model: payloads, packet wrappers, control messages.

NewMadeleine's scheduling layer manipulates *packet wrappers* ("pw"): units
of data handed to a driver.  A wrapper carries one or more **entries**:

* :class:`EagerEntry` — a whole application segment sent inline (PIO).
  Aggregation = several eager entries in one wrapper.
* :class:`RdvReq` — rendezvous request for a large segment, announcing how
  the sender intends to chunk it across rails.
* :class:`RdvAck` — receiver's clearance; DMA may start.

Bulk data itself never rides in a wrapper: it moves as flows and arrives as
:class:`DmaChunk` packets.

Payloads can be *real* (``bytes``, sliced and reassembled byte-for-byte —
the integrity tests rely on this) or *virtual* (size only — the benchmark
harness moves multi-megabyte messages without materializing them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Optional, Union

from ..obs.spans import rail_track
from ..util.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from .request import SendRequest

#: sort key of a ``(rail_index, offset, length)`` chunk: its offset
_by_offset = itemgetter(1)

__all__ = [
    "Payload",
    "EagerEntry",
    "RdvReq",
    "RdvAck",
    "PacketWrapper",
    "DmaChunk",
    "Entry",
]


@lru_cache(maxsize=256)
def _virtual(size: int) -> "Payload":
    """The shared virtual payload of ``size`` bytes: a flood of a few
    message sizes keeps a few payloads, not one per message."""
    return Payload(size, None)


class Payload:
    """A contiguous application buffer, real or virtual.

    A payload is an immutable value: nothing may assign to ``size`` or
    ``data`` after construction, and nothing may rely on two payloads being
    distinct objects — virtual payloads of one size are one shared object.

    >>> p = Payload.of(b"abcdef")
    >>> p.slice(2, 3).data
    b'cde'
    >>> Payload.virtual(1024).size
    1024
    """

    __slots__ = ("size", "data")

    def __init__(self, size: int, data: Optional[bytes]):
        if size < 0:
            raise ProtocolError(f"negative payload size {size}")
        if data is not None and len(data) != size:
            raise ProtocolError(f"payload size {size} != len(data) {len(data)}")
        self.size = size
        self.data = data

    @classmethod
    def of(cls, source: Union[bytes, bytearray, int, "Payload"]) -> "Payload":
        """Coerce bytes (real) or an int size (virtual) into a payload."""
        if isinstance(source, Payload):
            return source
        if type(source) is int:  # not a bool
            return _virtual(source)
        if isinstance(source, (bytes, bytearray)):
            b = bytes(source)
            return cls(len(b), b)
        raise ProtocolError(f"cannot build a payload from {type(source).__name__}")

    #: the shared virtual payload of ``size`` bytes — the cache itself, so
    #: a hit runs no Python frame
    virtual = staticmethod(_virtual)

    @property
    def is_virtual(self) -> bool:
        return self.data is None

    def slice(self, offset: int, length: int) -> "Payload":
        """Sub-payload ``[offset, offset+length)``; virtual stays virtual."""
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ProtocolError(
                f"bad slice [{offset}, {offset + length}) of payload size {self.size}"
            )
        if self.data is None:
            return _virtual(length)
        return Payload(length, self.data[offset : offset + length])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        return self.size == other.size and self.data == other.data

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        return hash((self.size, self.data))

    def __repr__(self) -> str:  # pragma: no cover
        kind = "virtual" if self.data is None else "real"
        return f"<Payload {kind} {self.size}B>"


@dataclass(slots=True)
class EagerEntry:
    """A whole segment carried inline in an eager packet."""

    tag: int
    seq: int
    payload: Payload

    def wire_size(self, header_bytes: int) -> int:
        return header_bytes + self.payload.size


class RdvReq:
    """Rendezvous request: announces a large segment and its chunking.

    ``chunks`` is a tuple of ``(rail_index, offset, length)`` covering
    ``[0, total_length)`` without gaps or overlaps (validated).  Like every
    control entry it is a plain slotted record: nothing assigns to it once
    it is built.
    """

    __slots__ = ("req_id", "tag", "seq", "total_length", "chunks")

    def __init__(
        self,
        req_id: int,
        tag: int,
        seq: int,
        total_length: int,
        chunks: tuple[tuple[int, int, int], ...],
    ):
        if not chunks:
            raise ProtocolError(f"rdv {req_id}: empty chunk list")
        covered = 0
        for rail_index, offset, length in sorted(chunks, key=_by_offset):
            if rail_index < 0 or length <= 0:
                raise ProtocolError(f"rdv {req_id}: bad chunk {(rail_index, offset, length)}")
            if offset != covered:
                raise ProtocolError(
                    f"rdv {req_id}: chunks leave a gap/overlap at offset {covered}"
                )
            covered += length
        if covered != total_length:
            raise ProtocolError(
                f"rdv {req_id}: chunks cover {covered} of {total_length} bytes"
            )
        self.req_id = req_id
        self.tag = tag
        self.seq = seq
        self.total_length = total_length
        self.chunks = chunks

    def wire_size(self, ctrl_bytes: int) -> int:
        # one descriptor (8 B) per extra chunk beyond the first
        return ctrl_bytes + 8 * (len(self.chunks) - 1)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RdvReq(req_id={self.req_id}, tag={self.tag}, seq={self.seq},"
            f" total_length={self.total_length}, chunks={self.chunks})"
        )


class RdvAck:
    """Receiver's clearance for a rendezvous request."""

    __slots__ = ("req_id",)

    def __init__(self, req_id: int):
        self.req_id = req_id

    def wire_size(self, ctrl_bytes: int) -> int:
        return ctrl_bytes // 2

    def __repr__(self) -> str:  # pragma: no cover
        return f"RdvAck(req_id={self.req_id})"


Entry = Union[EagerEntry, RdvReq, RdvAck]


class PacketWrapper:
    """A unit of transmission produced by the optimizing scheduler.

    A wrapper is made for one rail of one destination gate (see
    :meth:`repro.drivers.base.Driver.new_wrapper`): ``header_bytes`` and
    ``ctrl_bytes`` are that rail's per-entry framing, so :meth:`add` can
    keep the running tallies every later stage reads instead of walking
    the entries again —

    * ``wire_bytes`` — total on-wire size (each entry's ``wire_size``);
    * ``data_bytes`` / ``data_count`` — payload bytes / number of the
      :class:`EagerEntry` entries (the aggregation-copy size and test).

    All three are integer sums, so they equal a from-scratch walk over
    ``entries`` exactly; entries must only ever be added through
    :meth:`add` or :meth:`embed`.  ``send_requests`` lists the application
    send requests that complete once this wrapper is posted (eager
    segments, each put there by :meth:`embed`).
    """

    __slots__ = (
        "src_node",
        "dst_node",
        "rail_index",
        "header_bytes",
        "ctrl_bytes",
        "entries",
        "send_requests",
        "wire_bytes",
        "data_bytes",
        "data_count",
    )

    def __init__(
        self,
        src_node: int,
        dst_node: int,
        rail_index: Optional[int],
        header_bytes: int,
        ctrl_bytes: int,
    ):
        self.src_node = src_node
        self.dst_node = dst_node
        self.rail_index = rail_index
        self.header_bytes = header_bytes
        self.ctrl_bytes = ctrl_bytes
        self.entries: list[Entry] = []
        self.send_requests: list = []
        self.wire_bytes = 0
        self.data_bytes = 0
        self.data_count = 0

    def add(self, entry: Entry) -> None:
        self.entries.append(entry)
        if isinstance(entry, EagerEntry):
            size = entry.payload.size
            self.data_count += 1
            self.data_bytes += size
            self.wire_bytes += self.header_bytes + size
        else:
            self.wire_bytes += entry.wire_size(self.ctrl_bytes)

    def embed(self, request: "SendRequest") -> None:
        """Carry the whole send ``request`` as an eager entry — the one way
        a send request enters a wrapper; it completes when the wrapper is
        posted.  (A retransmitted entry re-enters through :meth:`add`,
        without its request: that completed at the first post.)"""
        payload = request.payload
        size = payload.size
        self.entries.append(EagerEntry(request.tag, request.seq, payload))
        self.send_requests.append(request)
        self.data_count += 1
        self.data_bytes += size
        self.wire_bytes += self.header_bytes + size

    def wire_size_of(self, entry: Entry) -> int:
        """On-wire bytes ``entry`` takes in a wrapper of this rail — what
        :meth:`add` would add to ``wire_bytes`` (the fit test of callers
        that must not overfill)."""
        return entry.wire_size(
            self.header_bytes if isinstance(entry, EagerEntry) else self.ctrl_bytes
        )

    def identity_args(self) -> dict:
        """Span-args identifying every request riding this wrapper.

        ``reqs`` lists eager segments as ``[tag, seq]`` pairs, ``rdv``
        lists rendezvous requests as ``[req_id, tag, seq]`` triples;
        together with the wrapper's ``dst`` they key the request index
        (see :mod:`repro.obs.critical_path`).  Only built when span
        tracing is on — never on the untraced hot path.
        """
        out: dict = {}
        reqs = [[e.tag, e.seq] for e in self.entries if isinstance(e, EagerEntry)]
        rdv = [
            [e.req_id, e.tag, e.seq] for e in self.entries if isinstance(e, RdvReq)
        ]
        if reqs:
            out["reqs"] = reqs
        if rdv:
            out["rdv"] = rdv
        return out

    def __repr__(self) -> str:  # pragma: no cover
        kinds = ",".join(type(e).__name__ for e in self.entries)
        return (
            f"<pw {self.src_node}->{self.dst_node} rail={self.rail_index}"
            f" [{kinds}]>"
        )


class DmaChunk:
    """One rendezvous chunk: what lands at the receiver, and — while it is
    in flight — everything its sender needs, so that launching, draining
    and landing it are this record's own methods, not closures.

    The receiver reads the wire fields ``req_id``, ``src_node``, ``offset``
    and ``payload``, which the constructor sets.  :meth:`Driver.start_dma
    <repro.drivers.base.Driver.start_dma>` sets the sender's: the sending
    ``driver``, ``dst_node`` and its NIC ``dst_nic``, the flow ``path``,
    the owner's ``on_drain(chunk)`` / ``on_lost(engine_reserved)``
    callbacks; :meth:`launch` sets ``started_at``.
    """

    __slots__ = (
        "req_id",
        "src_node",
        "offset",
        "payload",
        "driver",
        "dst_node",
        "dst_nic",
        "path",
        "on_drain",
        "on_lost",
        "started_at",
    )

    def __init__(self, req_id: int, src_node: int, offset: int, payload: Payload):
        self.req_id = req_id
        self.src_node = src_node
        self.offset = offset
        self.payload = payload

    @property
    def length(self) -> int:
        return self.payload.size

    # -- the sender's side: one flow per chunk -----------------------------
    def launch(self) -> None:
        """The DMA descriptor is posted: start the flow (a kernel event)."""
        driver = self.driver
        faults = driver.faults
        if faults is None:
            landed = self.landed
        else:
            # the injector rules on the chunk now and when it lands
            landed = faults.chunk_leaves(
                driver.rail_index, self.dst_nic, self, self.on_lost
            )
            if landed is None:
                return
        self.started_at = driver.sim.now
        platform = driver.platform
        platform.flownet.start_flow(
            path=self.path,
            size=self.payload.size + driver.spec.header_bytes,
            on_complete=landed,
            # read at the launch: the wire as it is when the chunk leaves
            extra_latency=platform.wire_latency_us(
                driver.rail_index, driver.node_id, self.dst_node
            ),
            tag=(driver.spec.name, self.req_id, self.offset),
            on_drain=self.drained,
        )

    def drained(self, _flow: Any) -> None:
        """The last byte left the sending NIC."""
        driver = self.driver
        spans = driver.spans
        if spans is not None and spans.enabled:
            spans.add(
                driver.node_id,
                rail_track(driver.name),
                "dma",
                "dma",
                self.started_at,
                driver.sim.now,
                {
                    "rail": driver.name,
                    "bytes": self.payload.size,
                    "req_id": self.req_id,
                    "offset": self.offset,
                    "dst": self.dst_node,
                },
            )
        observer = driver.observer
        if observer is not None:
            observer.observe(
                driver.rail_index, "dma", self.payload.size, self.started_at, driver.sim.now
            )
        if self.on_drain is not None:
            self.on_drain(self)

    def landed(self, _flow: Any) -> None:
        """The chunk reached the destination NIC (fault-free runs)."""
        self.dst_nic.deliver(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DmaChunk(req_id={self.req_id}, src_node={self.src_node},"
            f" offset={self.offset}, {self.payload!r})"
        )
