"""Incremental message construction — the pack/unpack flavour of the API.

"Messages may be constituted of one or more segments through incremental
message construction/extraction commands." (§2)

Each ``pack()`` submits one segment immediately (the engine may aggregate
or split it); ``end()`` seals the message and returns a
:class:`~repro.core.request.MultiRequest` covering all segments.  The
mirror image on the receiving side posts one receive per ``unpack()``::

    pk = Packer(iface, dst=1, tag=3)
    pk.pack(b"header")
    pk.pack(body_bytes)
    msg = pk.end()
    yield msg.completion

    up = Unpacker(iface, src=0, tag=3)
    h = up.unpack()
    b = up.unpack()
    yield up.end().completion
    assert h.data == b"header"
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from ..core.packet import Payload
from ..core.request import MultiRequest, RecvRequest, SendRequest
from ..util.errors import ApiError

if TYPE_CHECKING:  # pragma: no cover
    from .sendrecv import Interface

__all__ = ["Packer", "Unpacker"]


class Packer:
    """Incremental construction of one outgoing multi-segment message."""

    def __init__(self, iface: "Interface", dst: int, tag: int):
        self.iface = iface
        self.dst = dst
        self.tag = tag
        self._requests: list[SendRequest] = []
        self._sealed = False

    def pack(self, data: Union[bytes, bytearray, int, Payload]) -> SendRequest:
        """Append one segment (submitted to the engine immediately)."""
        if self._sealed:
            raise ApiError("pack() after end()")
        req = self.iface.isend(self.dst, self.tag, data)
        self._requests.append(req)
        return req

    def end(self) -> MultiRequest:
        """Seal the message; returns the completion of all its segments."""
        if self._sealed:
            raise ApiError("end() called twice")
        if not self._requests:
            raise ApiError("end() on an empty message")
        self._sealed = True
        return MultiRequest(self._requests)


class Unpacker:
    """Incremental extraction of one incoming multi-segment message."""

    def __init__(self, iface: "Interface", src: int, tag: int):
        self.iface = iface
        self.src = src
        self.tag = tag
        self._requests: list[RecvRequest] = []
        self._sealed = False

    def unpack(self) -> RecvRequest:
        """Post the receive for the next expected segment."""
        if self._sealed:
            raise ApiError("unpack() after end()")
        req = self.iface.irecv(self.src, self.tag)
        self._requests.append(req)
        return req

    def end(self) -> MultiRequest:
        """Seal; returns the completion of all posted receives."""
        if self._sealed:
            raise ApiError("end() called twice")
        if not self._requests:
            raise ApiError("end() on an empty message")
        self._sealed = True
        return MultiRequest(self._requests)
