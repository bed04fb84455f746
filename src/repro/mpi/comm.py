"""A small message-passing layer over the NewMadeleine core.

The paper's short-term plan was to port MPICH-Madeleine onto the
multi-rail engine (§4); this module is the reproduction's stand-in: ranks,
communicators with isolated tag spaces, non-blocking ``isend`` / ``irecv``,
and (in :mod:`repro.mpi.collectives`) tree/dissemination collectives.
A request is its own waitable, so a rank's process blocks by yielding
it: ``yield ep.isend(data, dest, tag)``, or ``req = ep.irecv(source,
tag); yield req`` and then ``req.payload``.

Because every communicator maps onto the *same* engines, segments from
different communicators interleave in the engine's submission queues and
can be aggregated into one physical packet — the paper's "data segments
can be aggregated ... even if they belong to different logical channels
(e.g. different MPI communicators)".

Tag encoding: ``core_tag = (comm_id << TAG_BITS) | user_tag`` with 16 bits
of user tag per communicator.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional, Union

from ..core.packet import Payload
from ..core.request import RecvRequest, SendRequest
from ..util.errors import ApiError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.session import Session

__all__ = ["Communicator", "CommEndpoint", "TAG_BITS", "MAX_USER_TAG"]

TAG_BITS = 16
MAX_USER_TAG = (1 << TAG_BITS) - 1

_comm_ids = itertools.count(1)


class Communicator:
    """A rank space over all nodes of a session."""

    def __init__(self, session: "Session", name: str = "world"):
        self.session = session
        self.name = name
        self.comm_id = next(_comm_ids)
        self._endpoints: dict[int, CommEndpoint] = {}
        #: user tag -> core tag, one int object per tag: every rank's
        #: per-tag state (``MatchingTable._mode``) and every request and
        #: posted key in flight hold it instead of an equal copy each
        #: (without it a P=1024 node holds 255 B more after a collectives
        #: run, and the run's traced peak is 0.4 MB higher)
        self._core_tags: dict[int, int] = {}

    @property
    def size(self) -> int:
        return self.session.n_nodes

    def endpoint(self, rank: int) -> "CommEndpoint":
        """The per-rank handle used inside that rank's process."""
        if type(rank) is not int:  # a bool or a float too: not a rank
            raise ApiError(f"rank must be an int, got {rank!r}")
        if not 0 <= rank < self.size:
            raise ApiError(f"rank {rank} out of range [0,{self.size})")
        ep = self._endpoints.get(rank)
        if ep is None:
            ep = self._endpoints[rank] = CommEndpoint(self, rank)
        return ep

    def dup(self, name: Optional[str] = None) -> "Communicator":
        """A new communicator over the same nodes with a fresh tag space."""
        return Communicator(self.session, name=name or f"{self.name}.dup")

    def _core_tag(self, user_tag: int) -> int:
        if type(user_tag) is not int:  # 1.0 would hit the cached tag of 1
            raise ApiError(f"tag must be an int, got {user_tag!r}")
        tag = self._core_tags.get(user_tag)
        if tag is None:
            if not 0 <= user_tag <= MAX_USER_TAG:
                raise ApiError(f"tag {user_tag} out of range [0,{MAX_USER_TAG}]")
            tag = self._core_tags[user_tag] = (self.comm_id << TAG_BITS) | user_tag
        return tag

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator {self.name} size={self.size}>"


class CommEndpoint:
    """One rank's view of a communicator."""

    def __init__(self, comm: Communicator, rank: int):
        self.comm = comm
        self.rank = rank
        self.iface = comm.session.interface(rank)

    @property
    def size(self) -> int:
        return self.comm.size

    def isend(
        self, data: Union[bytes, bytearray, int, Payload], dest: int, tag: int = 0
    ) -> SendRequest:
        return self.iface.isend(dest, self.comm._core_tag(tag), data)

    def irecv(self, source: int, tag: int = 0) -> RecvRequest:
        return self.iface.irecv(source, self.comm._core_tag(tag))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CommEndpoint rank={self.rank}/{self.size} comm={self.comm.name}>"
