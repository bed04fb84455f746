"""Communication request handles.

The collect layer turns every API call into a request object.  Requests
complete asynchronously (the engine runs on NIC activity, not API calls);
application processes wait on :attr:`Request.completion`: the request
itself while it is pending — a request is its own one-shot *waitable* (see
:mod:`repro.sim.process`) — and one shared zero-delay timeout once done.
A completed message costs the heap the handle its caller keeps, nothing
else: completion empties the waiter slot before it calls the waiters, so a
finished request references no callback, list or signal.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from ..sim.engine import Simulator
from ..sim.process import AllOf, Timeout
from ..util.errors import ApiError
from .packet import Payload

__all__ = ["Request", "SendRequest", "RecvRequest", "MultiRequest"]

_ALREADY_DONE = Timeout(0.0)  #: every finished request's ``completion``


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
        "_waiter",
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
        #: None, the one waiting callback, or a list once a second registers.
        self._waiter: Any = None

    @property
    def completion(self) -> Union[Timeout, "Request"]:
        """A waitable: yield this from a process to block until done."""
        return _ALREADY_DONE if self.done else self

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(self)`` at completion; on a finished request, run it
        with ``None`` from a zero-delay event (never synchronously)."""
        waiter = self._waiter
        if self.done:
            self.sim.schedule(0.0, callback, None)
        elif waiter is None:
            self._waiter = callback
        elif type(waiter) is list:
            waiter.append(callback)
        else:
            self._waiter = [waiter, callback]

    def unwait(self, callback: Callable[[Any], None]) -> None:
        """Withdraw a :meth:`wait` callback (no-op if absent)."""
        waiter = self._waiter
        if waiter == callback:  # bound methods are equal, not identical
            self._waiter = None
        elif type(waiter) is list and callback in waiter:
            waiter.remove(callback)

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
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if type(waiter) is list:
                for callback in waiter:  # registration order
                    callback(self)
            else:
                waiter(self)

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else "pending"
        return f"<{type(self).__name__} peer={self.peer} tag={self.tag} seq={self.seq} {state}>"


class SendRequest(Request):
    """One submitted segment, from ``isend`` until it has fully left this node.

    A send request *is* the segment — the scheduling unit: each
    ``pack()``/``isend()`` call submits one, the strategy queues the
    request itself (:meth:`Strategy.pack
    <repro.core.strategies.base.Strategy.pack>`), and the optimizing
    scheduler is free to aggregate several into one packet or to split one
    into several chunks.  ``peer`` is the destination node and ``seq`` the
    segment's number on its ``(peer, tag)`` channel: a **gate** —
    NewMadeleine's connection to one peer — has no object here, only one
    counter per channel on each side, keyed by the int ``tag * n_nodes +
    peer`` (``NodeEngine._seq_out`` for sends,
    :class:`~repro.core.matching.MatchingTable` for receives), and the nth
    send on a channel matches the nth receive, which is what makes
    out-of-order multi-rail delivery safe.

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
