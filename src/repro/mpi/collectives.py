"""Point-to-point collective algorithms over :class:`CommEndpoint`.

Generator functions to ``yield from`` inside a rank's process.  Each
shape is written once:

* the binomial reduce :func:`_vec_reduce`; :func:`reduce` is its
  one-element call;
* reduce then bcast, :func:`_lane_allreduce`; :func:`allreduce` is its
  one-element call at root 0;
* the dissemination ring :func:`_lane_barrier`, ⌈log2 P⌉ rounds;
  :func:`barrier` is that ring on its own tag;
* the lane fan-out :func:`_fan_out`: :func:`multilane_allreduce` and
  :func:`multilane_barrier` (Träff, arXiv:1910.13373) run one lane per
  chunk as concurrent, independently-rooted child processes — parallel
  traffic for the engine to spread across the rails.  One lane runs
  inline, with no child.

:func:`bcast` is a binomial tree rooted anywhere; :func:`gather`,
:func:`scatter` and :func:`alltoall` are linear, :func:`scan` a chain;
:func:`nic_barrier` is a k-ary combining tree after the NIC-based
barriers of Yu et al. (arXiv:cs/0402027).

Scalars travel as 8-byte doubles (:func:`encode_value`, the same bytes
as a one-element :func:`encode_vector`); byte payloads travel verbatim.
Collectives use reserved tags at the top of the user tag space, one
plane per lane.  Every message is one request yielded as it is (a
request is its own waitable): a rank in flight holds its collective's
frames and its pending requests, nothing per message besides.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Optional, Sequence

from ..core.packet import Payload
from ..sim.process import AllOf, spawn
from ..util.errors import ApiError
from .comm import CommEndpoint, MAX_USER_TAG

__all__ = [
    "barrier",
    "bcast",
    "gather",
    "scatter",
    "alltoall",
    "reduce",
    "allreduce",
    "scan",
    "multilane_allreduce",
    "multilane_barrier",
    "nic_barrier",
    "encode_value",
    "decode_value",
    "encode_vector",
    "decode_vector",
    "MAX_LANES",
]

#: reserved collective tags (top of the user tag space).
TAG_BARRIER = MAX_USER_TAG
TAG_BCAST = MAX_USER_TAG - 1
TAG_GATHER = MAX_USER_TAG - 2
TAG_REDUCE = MAX_USER_TAG - 3
TAG_SCATTER = MAX_USER_TAG - 4
TAG_ALLTOALL = MAX_USER_TAG - 5
TAG_SCAN = MAX_USER_TAG - 6
TAG_NIC_BARRIER = MAX_USER_TAG - 7

#: lane tag planes sit below the scalar collective tags; lane ``l`` of a
#: multi-lane collective uses ``BASE - l``, so the planes never overlap
#: while ``l < MAX_LANES``.
MAX_LANES = 8
TAG_LANE_REDUCE = MAX_USER_TAG - 8  # .. MAX_USER_TAG - 15
TAG_LANE_BCAST = MAX_USER_TAG - 16  # .. MAX_USER_TAG - 23
TAG_LANE_BARRIER = MAX_USER_TAG - 24  # .. MAX_USER_TAG - 31


def encode_value(value: float) -> bytes:
    """Serialize a scalar for a reduction message (8-byte double)."""
    return struct.pack("<d", float(value))


def decode_value(payload: Payload) -> float:
    if payload.data is None or len(payload.data) != 8:
        raise ApiError(f"not a scalar reduction payload: {payload!r}")
    return struct.unpack("<d", payload.data)[0]


def encode_vector(values: Sequence[float]) -> bytes:
    """Serialize a float vector (packed little-endian doubles)."""
    return struct.pack(f"<{len(values)}d", *map(float, values))


def decode_vector(payload: Payload) -> list[float]:
    data = payload.data
    if data is None or len(data) % 8:
        raise ApiError(f"not a vector reduction payload: {payload!r}")
    return list(struct.unpack(f"<{len(data) // 8}d", data))


def barrier(ep: CommEndpoint):
    """Dissemination barrier: ``yield from barrier(ep)``."""
    yield from _lane_barrier(ep, TAG_BARRIER)


def bcast(
    ep: CommEndpoint,
    data: Optional[bytes] = None,
    root: int = 0,
    tag: int = TAG_BCAST,
):
    """Binomial-tree broadcast; returns the payload on every rank.

    The root passes ``data``; other ranks pass None and receive it.
    ``tag`` defaults to the reserved broadcast tag; the multi-lane
    collectives pass their lane's tag plane instead.
    """
    size = ep.size
    vrank = (ep.rank - root) % size  # root becomes virtual rank 0
    payload: Optional[Payload]
    if vrank == 0:
        if data is None:
            raise ApiError("bcast root must provide data")
        payload = Payload.of(data)
    else:
        # receive from the parent: clear the lowest set bit of vrank
        parent = (vrank & (vrank - 1)) % size
        req = ep.irecv((parent + root) % size, tag)
        yield req
        payload = req.payload
    # forward to children: set bits above our lowest set bit
    k = 1
    while k < size:
        if vrank & (k - 1) == 0 and vrank | k != vrank:
            child = vrank | k
            if child < size:
                assert payload is not None
                yield ep.isend(payload, (child + root) % size, tag)
        if vrank & k:
            break
        k *= 2
    return payload


def gather(ep: CommEndpoint, data: bytes, root: int = 0):
    """Linear gather; the root returns ``{rank: payload}``, others None."""
    if ep.rank == root:
        out: dict[int, Payload] = {root: Payload.of(data)}
        reqs = {
            r: ep.irecv(r, TAG_GATHER) for r in range(ep.size) if r != root
        }
        for r, req in reqs.items():
            yield req
            assert req.payload is not None
            out[r] = req.payload
        return out
    yield ep.isend(data, root, TAG_GATHER)
    return None


def scatter(ep: CommEndpoint, data_per_rank=None, root: int = 0):
    """Linear scatter; every rank returns its own payload.

    The root passes a sequence with one entry per rank (its own entry is
    returned locally); other ranks pass None.
    """
    if ep.rank == root:
        if data_per_rank is None or len(data_per_rank) != ep.size:
            raise ApiError(f"scatter root needs {ep.size} entries")
        sends = [
            ep.isend(data_per_rank[r], r, TAG_SCATTER)
            for r in range(ep.size)
            if r != root
        ]
        if sends:
            yield AllOf(sends)
        return Payload.of(data_per_rank[root])
    req = ep.irecv(root, TAG_SCATTER)
    yield req
    return req.payload


def alltoall(ep: CommEndpoint, data_per_peer):
    """Personalized all-to-all; returns ``{peer: payload}``.

    ``data_per_peer`` is a sequence with one entry per rank; the entry at
    the rank's own index is ignored.  Posts everything non-blocking, so
    the engine is free to aggregate the small pieces and balance/split
    the large ones.
    """
    if len(data_per_peer) != ep.size:
        raise ApiError(f"alltoall needs {ep.size} entries, got {len(data_per_peer)}")
    sends = [
        ep.isend(data_per_peer[peer], peer, TAG_ALLTOALL)
        for peer in range(ep.size)
        if peer != ep.rank
    ]
    recvs = {peer: ep.irecv(peer, TAG_ALLTOALL) for peer in range(ep.size) if peer != ep.rank}
    if sends:
        yield AllOf(sends + list(recvs.values()))
    return {peer: req.payload for peer, req in recvs.items()}


def scan(
    ep: CommEndpoint,
    value: float,
    op: Callable[[float, float], float] = operator.add,
):
    """Inclusive prefix reduction along the rank chain.

    Rank r returns ``op(v_0, ..., v_r)``.  Linear algorithm: each rank
    waits for its predecessor's prefix, folds its own value in, and
    forwards the result.
    """
    acc = float(value)
    if ep.rank > 0:
        req = ep.irecv(ep.rank - 1, TAG_SCAN)
        yield req
        acc = op(decode_value(req.payload), acc)
    if ep.rank + 1 < ep.size:
        yield ep.isend(encode_value(acc), ep.rank + 1, TAG_SCAN)
    return acc


def reduce(
    ep: CommEndpoint,
    value: float,
    op: Callable[[float, float], float] = operator.add,
    root: int = 0,
):
    """Binomial-tree reduction of a scalar; the root returns the result."""
    acc = yield from _vec_reduce(ep, [value], op, TAG_REDUCE, root)
    return None if acc is None else acc[0]


def allreduce(
    ep: CommEndpoint,
    value: float,
    op: Callable[[float, float], float] = operator.add,
):
    """Reduce to rank 0 then broadcast the result; every rank returns it."""
    result = yield from _lane_allreduce(ep, [value], op, 0, TAG_REDUCE, TAG_BCAST)
    return result[0]


# --------------------------------------------------------------------- #
# the shapes, each written once; the multi-lane fan-out; the NIC barrier
# --------------------------------------------------------------------- #
def _resolve_lanes(ep: CommEndpoint, lanes: Optional[int], n_items: int) -> int:
    if lanes is None:
        lanes = ep.n_rails
    if lanes < 1:
        raise ApiError(f"need at least one lane, got {lanes}")
    return min(int(lanes), MAX_LANES, max(1, n_items))


def _vec_reduce(
    ep: CommEndpoint,
    vec: Sequence[float],
    op: Callable[[float, float], float],
    tag: int,
    root: int,
):
    """The binomial reduce: elementwise reduction of a vector to ``root``,
    which returns it (every other rank returns None)."""
    size = ep.size
    vrank = (ep.rank - root) % size
    acc = list(map(float, vec))
    k = 1
    while k < size:
        if vrank & k:
            parent = vrank & ~k
            yield ep.isend(encode_vector(acc), (parent + root) % size, tag)
            return None
        child = vrank | k
        if child < size:
            req = ep.irecv((child + root) % size, tag)
            yield req
            other = decode_vector(req.payload)
            if len(other) != len(acc):
                raise ApiError(
                    f"lane length mismatch: {len(other)} vs {len(acc)}"
                )
            acc = list(map(op, acc, other))  # no comprehension: no cell for op
        k *= 2
    return acc


def _lane_allreduce(ep, chunk, op, root, reduce_tag, bcast_tag):
    """Reduce then bcast: ``chunk`` reduced to ``root`` on ``reduce_tag``
    and broadcast back on ``bcast_tag``; every rank returns the vector."""
    reduced = yield from _vec_reduce(ep, chunk, op, reduce_tag, root)
    payload = yield from bcast(
        ep, None if reduced is None else encode_vector(reduced), root, bcast_tag
    )
    return decode_vector(payload)


def _lane_barrier(ep: CommEndpoint, tag: int):
    """The dissemination ring on ``tag``: in round k every rank sends a
    token to rank + k and awaits one from rank - k, ⌈log2 P⌉ rounds."""
    size, rank = ep.size, ep.rank
    k = 1
    while k < size:
        # one peer at P=2
        yield AllOf([
            ep.isend(b"\x00", (rank + k) % size, tag),
            ep.irecv((rank - k) % size, tag),
        ])
        k *= 2


def _fan_out(ep: CommEndpoint, name: str, bodies: list) -> AllOf:
    """Spawn one child process per lane body; yield the returned
    :class:`AllOf` for the lanes' results, in lane order."""
    sim = ep.iface.engine.sim
    children = []
    for lane, body in enumerate(bodies):
        children.append(spawn(sim, body, name=f"{name}.lane{lane}.r{ep.rank}"))
    return AllOf(children)


def multilane_allreduce(
    ep: CommEndpoint,
    values: Sequence[float],
    op: Callable[[float, float], float] = operator.add,
    lanes: Optional[int] = None,
):
    """Multi-lane elementwise allreduce of a float vector.

    The vector splits into ``lanes`` contiguous chunks (default: one lane
    per rail).  Each lane runs an independent binomial reduce+bcast,
    rooted at rank ``lane % size`` so the lane trees do not all converge
    on one node, and all lanes run *concurrently* as child processes of
    the calling rank — the per-lane messages are simultaneous traffic
    the engine's strategy spreads across the rails, which is the whole
    point of the Träff decomposition.  Returns the reduced vector.
    """
    values = list(map(float, values))
    if not values:
        raise ApiError("multilane_allreduce needs a non-empty vector")
    lanes = _resolve_lanes(ep, lanes, len(values))
    if ep.size == 1:
        return values
    if lanes == 1:
        return (yield from _lane_allreduce(
            ep, values, op, 0, TAG_LANE_REDUCE, TAG_LANE_BCAST
        ))
    # contiguous chunks, the first ``n % lanes`` one element longer (Träff's
    # layout); a loop, not a comprehension: one would cost a cell per local
    base, extra = divmod(len(values), lanes)
    bodies, hi = [], 0
    for lane in range(lanes):
        lo, hi = hi, hi + base + (lane < extra)
        bodies.append(_lane_allreduce(
            ep, values[lo:hi], op, lane % ep.size,
            TAG_LANE_REDUCE - lane, TAG_LANE_BCAST - lane,
        ))
    result: list[float] = []
    for chunk in (yield _fan_out(ep, "allreduce", bodies)):
        result.extend(chunk)
    return result


def multilane_barrier(ep: CommEndpoint, lanes: Optional[int] = None):
    """Barrier as ``lanes`` concurrent dissemination token streams.

    Each lane is an independent dissemination barrier on its own tag
    plane; the barrier completes when every lane completes.  With one
    lane this is :func:`barrier` on the first lane plane; with more, the
    concurrent tokens give the engine simultaneous small messages to
    aggregate and balance across rails (latency-driven rail selection,
    paper §2).
    """
    lanes = _resolve_lanes(ep, lanes, MAX_LANES)
    if ep.size == 1:
        return
    if lanes == 1:
        yield from _lane_barrier(ep, TAG_LANE_BARRIER)
        return
    bodies = []
    for lane in range(lanes):
        bodies.append(_lane_barrier(ep, TAG_LANE_BARRIER - lane))
    yield _fan_out(ep, "barrier", bodies)


def nic_barrier(ep: CommEndpoint, arity: int = 4):
    """K-ary combining-tree barrier (NIC-style, after Yu et al.).

    Tokens combine up an ``arity``-ary tree rooted at rank 0, then the
    release broadcasts back down the same tree.  Two messages per
    non-root rank — the traffic shape of a NIC-offloaded barrier, here
    scheduled over whichever rail the strategy picks (the fastest one,
    matching the latency-driven selection the paper's engine applies to
    small control packets).
    """
    if arity < 2:
        raise ApiError(f"nic_barrier arity must be >= 2, got {arity}")
    size, rank = ep.size, ep.rank
    if size == 1:
        return
    first_child = rank * arity + 1
    children = range(first_child, min(first_child + arity, size))
    # combine: wait for every child's token, then signal the parent
    for child in children:
        yield ep.irecv(child, TAG_NIC_BARRIER)
    if rank != 0:
        parent = (rank - 1) // arity
        yield ep.isend(b"\x00", parent, TAG_NIC_BARRIER)
        yield ep.irecv(parent, TAG_NIC_BARRIER)
    # release: wake the children back down the tree
    for child in children:
        yield ep.isend(b"\x00", child, TAG_NIC_BARRIER)
