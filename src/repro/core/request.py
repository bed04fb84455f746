"""Communication request handles.

The collect layer turns every API call into a request object.  Requests
complete asynchronously (the engine runs on NIC activity, not API calls);
application processes wait on :attr:`Request.completion`, which is either a
zero-delay timeout (already done) or the request's one-shot signal — made
on that first ask: a request nobody waits on never owns a signal.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..sim.engine import Simulator
from ..sim.process import AllOf, Signal, Timeout
from ..util.errors import ApiError
from .packet import Payload

__all__ = ["Request", "SendRequest", "RecvRequest", "MultiRequest"]


class Request:
    """Base class for asynchronous communication requests."""

    __slots__ = (
        "sim",
        "peer",
        "tag",
        "seq",
        "done",
        "submitted_at",
        "first_commit_at",
        "completed_at",
        "payload",
        "_signal",
    )

    def __init__(
        self,
        sim: Simulator,
        peer: int,
        tag: int,
        seq: int,
        payload: Optional[Payload] = None,
    ):
        self.sim = sim
        self.peer = peer
        self.tag = tag
        self.seq = seq
        #: the segment sent, or the one received (None until delivered).
        self.payload = payload
        self.done = False
        self.submitted_at = sim.now
        #: when the engine first PIO-posted a wrapper carrying this
        #: request (eager data or its RDV_REQ); feeds the lifecycle report.
        self.first_commit_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._signal: Optional[Signal] = None

    @property
    def completion(self) -> Union[Timeout, Signal]:
        """A waitable: yield this from a process to block until done."""
        if self.done:
            return Timeout(0.0)
        if self._signal is None:
            self._signal = Signal(self.sim, name="request")
        return self._signal

    @property
    def elapsed_us(self) -> float:
        """Submission-to-completion time; raises if not complete."""
        if self.completed_at is None:
            raise ApiError("request not complete yet")
        return self.completed_at - self.submitted_at

    def _complete(self) -> None:
        if self.done:
            raise ApiError(f"request completed twice: {self!r}")
        self.done = True
        self.completed_at = self.sim.now
        if self._signal is not None:
            self._signal.fire(self)

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else "pending"
        return f"<{type(self).__name__} peer={self.peer} tag={self.tag} seq={self.seq} {state}>"


class SendRequest(Request):
    """Tracks one submitted segment until it has fully left this node.

    For eager segments completion means the packet was handed to the NIC;
    for rendezvous segments it means every chunk's last byte drained.
    """

    __slots__ = ()


class RecvRequest(Request):
    """Tracks one posted receive until its matching segment arrived."""

    __slots__ = ()

    def _deliver(self, payload: Payload) -> None:
        if self.payload is not None:
            raise ApiError(f"receive delivered twice: {self!r}")
        self.payload = payload
        self._complete()

    @property
    def data(self) -> Optional[bytes]:
        """Received bytes (None for virtual payloads or if pending)."""
        return None if self.payload is None else self.payload.data


class MultiRequest:
    """Completion of a group of requests (e.g. one multi-segment message)."""

    __slots__ = ("requests",)

    def __init__(self, requests: Sequence[Request]):
        if not requests:
            raise ApiError("MultiRequest needs at least one request")
        self.requests = list(requests)

    @property
    def done(self) -> bool:
        return all(r.done for r in self.requests)

    @property
    def completion(self):
        """Waitable for "all sub-requests complete"."""
        return AllOf([r.completion for r in self.requests])

    @property
    def completed_at(self) -> float:
        if not self.done:
            raise ApiError("multi-request not complete yet")
        return max(r.completed_at for r in self.requests)  # type: ignore[type-var]

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)
