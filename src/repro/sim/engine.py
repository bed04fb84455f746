"""Discrete-event simulation kernel.

The whole reproduction runs on simulated time: the NewMadeleine engine, the
NIC models, the flow-level bandwidth sharing and the benchmark harness all
schedule events on a single :class:`Simulator`.

Design notes
------------
* Time is a ``float`` in **microseconds**.  With 1 MB/s == 1 B/us the
  bandwidth constants of the paper can be used verbatim.  The clock holds a
  float whatever number type a caller passes to :meth:`Simulator.at` or
  ``run(until=...)``, as the native core's does.
* The event queue is a binary heap keyed by ``(time, seq)``.  The
  monotonically increasing sequence number makes execution order fully
  deterministic for simultaneous events (FIFO among equal timestamps),
  which the test-suite relies on.
* Events are cancelled lazily: :meth:`EventHandle.cancel` marks the handle
  dead and the main loop skips dead entries when popping.  This keeps
  cancellation O(1) at the cost of leaving tombstones in the heap, which is
  the standard trade-off for simulators with frequent timer cancellation
  (e.g. flow re-scheduling in :mod:`repro.sim.flows`).

Fast paths (see DESIGN.md "Kernel fast paths")
----------------------------------------------
* **Live counter** — :attr:`Simulator.pending` is maintained incrementally
  (O(1)) instead of scanning the heap; cancellation notifies the owning
  simulator.
* **Tombstone compaction** — when cancelled entries exceed both an absolute
  floor and half the heap, the heap is rebuilt in place without them.
  Rebuilding preserves order exactly: every entry has a unique
  ``(time, seq)`` key, so pop order after ``heapify`` is unchanged.
* **Zero-delay FIFO lane** — events scheduled *at the current time* go to a
  deque instead of the heap (append/popleft instead of two O(log n) heap
  operations).  The lane merges with the heap by ``(time, seq)``, so FIFO
  order among equal timestamps is identical to the heap-only kernel.
* The :meth:`run` loop binds hot attributes locally and inlines the pop
  path rather than calling :meth:`step` per event.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Optional

__all__ = ["Simulator", "EventHandle", "SimulationError", "ScheduleInPastError"]


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation kernel."""


class ScheduleInPastError(SimulationError):
    """Raised when an event is scheduled strictly before the current time."""


class EventHandle:
    """Handle to a scheduled callback.

    A handle supports cancellation and inspection.  Instances are created
    by :meth:`Simulator.schedule` / :meth:`Simulator.at` only.
    """

    __slots__ = ("time", "seq", "fn", "args", "_alive", "_fired", "_sim", "_in_heap")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
        in_heap: bool = True,
    ):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self._alive = True
        self._fired = False
        self._sim = sim
        self._in_heap = in_heap

    # ordering for heapq --------------------------------------------------
    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    # public API -----------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the event is pending (not fired, not cancelled)."""
        return self._alive and not self._fired

    @property
    def fired(self) -> bool:
        """True once the callback has been executed."""
        return self._fired

    def cancel(self) -> bool:
        """Cancel the event.

        Returns ``True`` if the event was pending and is now cancelled,
        ``False`` if it had already fired or was already cancelled.
        Cancelling drops the callback reference so that captured state can
        be garbage collected even though the tombstone stays in the heap.
        """
        if not self.alive:
            return False
        self._alive = False
        self.fn = None
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._note_cancel(self)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else ("pending" if self._alive else "cancelled")
        return f"<EventHandle t={self.time:.3f} seq={self.seq} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    ``Simulator(...)`` is also the backend dispatcher: constructing it
    returns the concrete kernel selected by ``backend=`` /
    ``$REPRO_SIM_BACKEND`` / auto-detection (see :mod:`repro.sim.backend`).
    The class body below is the ``heap`` backend — the original
    tombstoned-binary-heap kernel, kept unchanged as the reference
    implementation that the native backend is differentially tested
    against, and the core ``auto`` falls back to.

    Example
    -------
    >>> sim = Simulator(backend="heap")
    >>> out = []
    >>> _ = sim.schedule(5.0, out.append, "a")
    >>> _ = sim.schedule(1.0, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    >>> sim.now
    5.0
    """

    #: concrete backend name; subclasses override.
    backend = "heap"

    #: don't bother compacting heaps with fewer dead entries than this.
    COMPACT_MIN_DEAD = 64
    #: compact when dead entries exceed this fraction of the heap.
    COMPACT_RATIO = 0.5

    #: ``(process, generator) -> resume`` of a core that resumes processes
    #: itself; on this one a process resumes through ``Process._advance``.
    _process_resume = None

    def __new__(cls, backend: Optional[str] = None) -> "Simulator":
        # Dispatch only on the base class: Simulator() returns whichever
        # backend is selected; subclasses construct directly.
        if cls is Simulator:
            from .backend import resolve_backend, simulator_class

            name = resolve_backend(backend)
            if name != "heap":
                return object.__new__(simulator_class(name))
        return object.__new__(cls)

    def __init__(self, backend: Optional[str] = None) -> None:
        self._now: float = 0.0
        self._heap: list[EventHandle] = []
        #: zero-delay lane: events scheduled at exactly the current time.
        self._fifo: deque[EventHandle] = deque()
        self._seq: int = 0
        self._running = False
        self._events_executed: int = 0
        self._live: int = 0
        self._dead_heap: int = 0
        self._compactions: int = 0
        self._compact_min_dead: int = self.COMPACT_MIN_DEAD
        self._compact_ratio: float = self.COMPACT_RATIO

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    # a C getter: reading the clock runs no Python frame
    now = property(attrgetter("_now"), doc="Current simulated time in microseconds.")

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far (for diagnostics)."""
        return self._events_executed

    @property
    def events_scheduled(self) -> int:
        """Total number of events ever scheduled (for diagnostics/tests)."""
        return self._seq

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    @property
    def heap_compactions(self) -> int:
        """Number of in-place tombstone compactions performed so far."""
        return self._compactions

    @property
    def tombstone_ratio(self) -> float:
        """Fraction of heap entries that are cancelled tombstones (0..1)."""
        n = len(self._heap)
        return self._dead_heap / n if n else 0.0

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_dead()
        t = self._heap[0].time if self._heap else None
        if self._fifo:
            ft = self._fifo[0].time
            if t is None or ft < t:
                t = ft
        return t

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now.

        ``delay`` must be >= 0; a zero delay runs after all events already
        queued at the current time (FIFO ordering).
        """
        if not delay >= 0:  # spelled so that NaN is rejected too
            raise ScheduleInPastError(f"negative delay {delay!r}")
        return self.at(self._now + delay, fn, *args)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        now = self._now
        if not time >= now:
            raise ScheduleInPastError(
                f"cannot schedule at {time!r}, current time is {now!r}"
            )
        if time.__class__ is not float:  # schedule() already passes a float
            time = float(time)
        self._seq += 1
        self._live += 1
        if time == now:
            # zero-delay fast lane: already in (time, seq) order by
            # construction, so append/popleft replaces two heap operations.
            ev = EventHandle(time, self._seq, fn, args, self, in_heap=False)
            self._fifo.append(ev)
        else:
            ev = EventHandle(time, self._seq, fn, args, self)
            heapq.heappush(self._heap, ev)
        return ev

    # ------------------------------------------------------------------ #
    # cancellation bookkeeping
    # ------------------------------------------------------------------ #
    def _note_cancel(self, ev: EventHandle) -> None:
        self._live -= 1
        if ev._in_heap:
            self._dead_heap += 1
            if (
                self._dead_heap >= self._compact_min_dead
                and self._dead_heap >= self._compact_ratio * len(self._heap)
            ):
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones, in place.

        In place (slice assignment) so that a :meth:`run` loop holding a
        local reference keeps seeing the same list.  Order is preserved:
        ``(time, seq)`` keys are unique, so heapify yields the same pop
        sequence as lazily skipping the dead entries would have.
        """
        heap = self._heap
        heap[:] = [ev for ev in heap if ev._alive]
        heapq.heapify(heap)
        self._dead_heap = 0
        self._compactions += 1

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _drop_dead(self) -> None:
        heap = self._heap
        while heap and not heap[0]._alive:
            heapq.heappop(heap)
            self._dead_heap -= 1
        fifo = self._fifo
        while fifo and not fifo[0]._alive:
            fifo.popleft()

    def step(self) -> bool:
        """Execute the next live event.  Returns False if none remain."""
        self._drop_dead()
        heap = self._heap
        fifo = self._fifo
        if fifo:
            if heap and heap[0] < fifo[0]:
                ev = heapq.heappop(heap)
            else:
                ev = fifo.popleft()
        elif heap:
            ev = heapq.heappop(heap)
        else:
            return False
        self._fire(ev)
        return True

    def _fire(self, ev: EventHandle) -> None:
        self._now = ev.time
        ev._fired = True
        self._live -= 1
        fn, args = ev.fn, ev.args
        ev.fn, ev.args = None, ()  # release references
        self._events_executed += 1
        assert fn is not None
        fn(*args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        When the loop stops because of ``until``, the clock is advanced to
        ``until`` even if no event fired there.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        # hot loop: bind attributes once; _compact mutates the heap list in
        # place, so these locals stay valid across callbacks.
        heap = self._heap
        fifo = self._fifo
        pop = heapq.heappop
        popleft = fifo.popleft
        try:
            while True:
                while heap and not heap[0]._alive:
                    pop(heap)
                    self._dead_heap -= 1
                while fifo and not fifo[0]._alive:
                    popleft()
                if fifo:
                    ev = fifo[0]
                    if heap and heap[0] < ev:
                        ev = heap[0]
                        from_fifo = False
                    else:
                        from_fifo = True
                elif heap:
                    ev = heap[0]
                    from_fifo = False
                else:
                    break
                if until is not None and ev.time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                if from_fifo:
                    popleft()
                else:
                    pop(heap)
                executed += 1
                self._now = ev.time
                ev._fired = True
                self._live -= 1
                fn = ev.fn
                args = ev.args
                ev.fn = None
                ev.args = ()
                self._events_executed += 1
                fn(*args)
            if until is not None and self._now < until:
                self._now = float(until)
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        """Run to queue exhaustion; guard against runaway loops."""
        self.run(max_events=max_events)
        if self._live:
            raise SimulationError(
                f"simulation did not converge within {max_events} events"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator backend={self.backend} t={self._now:.3f}"
            f" pending={self.pending}>"
        )
