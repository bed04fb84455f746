"""Collect-layer message-passing interface (the paper's benchmark API).

An :class:`Interface` is the per-node handle applications talk to.  All
operations are non-blocking and return request objects; application
processes block by yielding ``request.completion``::

    req = iface.isend(1, tag=7, data=b"hello")
    rep = iface.irecv(1, tag=7)
    yield AllOf([req.completion, rep.completion])

A pending request *is* its completion (a one-shot waitable: the ``yield``
returns the request) and a finished one answers a zero-delay timeout, so
waiting costs the heap nothing that outlives the wait; an application may
keep every handle it was given and pay for the handles only.

Multi-segment messages (the paper's "incremental message construction")
are built with :mod:`repro.api.pack`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from ..core.packet import Payload
from ..core.request import RecvRequest, SendRequest
from ..util.errors import ApiError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.scheduler import NodeEngine

__all__ = ["Interface"]

Sendable = Union[bytes, bytearray, int, Payload]


class Interface:
    """Non-blocking send/receive API bound to one node's engine."""

    def __init__(self, engine: "NodeEngine"):
        self.engine = engine

    @property
    def node_id(self) -> int:
        return self.engine.node_id

    @property
    def sim(self):
        return self.engine.sim

    # ------------------------------------------------------------------ #
    def isend(self, dst_node: int, tag: int, data: Sendable) -> SendRequest:
        """Submit one segment to ``dst_node`` on logical channel ``tag``.

        ``data`` may be real bytes or an int size (a virtual payload;
        those of one size are one shared immutable object).  Node ids and
        tags are checked by the engine, the data here: anything else — a
        bool or a float size included — is an :class:`ApiError`.
        """
        if type(data) is int:
            payload = Payload.virtual(data)
        elif isinstance(data, (bytes, bytearray, Payload)):
            payload = Payload.of(data)
        else:
            raise ApiError(
                "data must be bytes, a Payload or an int size,"
                f" got {type(data).__name__}"
            )
        return self.engine.submit(dst_node, tag, payload)

    def irecv(self, src_node: int, tag: int) -> RecvRequest:
        """Post a receive for the next segment from ``src_node``/``tag``."""
        return self.engine.post_recv(src_node, tag)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Interface node={self.node_id}>"
