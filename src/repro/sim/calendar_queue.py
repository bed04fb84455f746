"""Calendar-queue event core (pure Python ``calendar`` backend).

A calendar queue (Brown 1988) bins future events into fixed-width time
windows ("days") hashed over a power-of-two bucket array ("years" wrap).
Popping drains one window at a time: the due window's entries are
extracted in a batch, sorted once with a C-level tuple sort, and consumed
by a cursor.  Compared with a binary heap this replaces two O(log n)
Python-object comparisons per event with amortised O(1) list operations,
and — crucially for this codebase's timer-churn workloads — cancellation
leaves no tombstone to sift around: dead entries are dropped wholesale
during window extraction and resize sweeps, never ``heapify``-ed.

Layout ("array of structs" per window)
--------------------------------------
Entries are plain tuples ``(time, seq, vbucket, handle)``; comparisons
stay entirely in C (``time`` and ``seq`` decide before the tuple compare
could ever reach the handle).  ``vbucket = int(time / width)`` is the
*virtual* bucket index; the physical bucket is ``vbucket & mask``.  An
entry belongs to the current window iff its virtual index equals the
cursor's — an exact integer comparison, immune to the float-boundary
ambiguity of ``t < window_end`` tests.

The ladder rung for small queues
--------------------------------
Calendar queues shine from a few dozen events upward; below that the
window machinery costs more than it saves.  Like a ladder queue's bottom
rung, queues of up to :data:`~CalendarSimulator.SPINE_MAX` resident
entries are kept in a single sorted list (the *spine*) consumed by a head
cursor — ``bisect.insort`` on C-comparable tuples is as fast as a heap
push and pop-front is O(1).  Exceeding the bound promotes the spine into
calendar buckets (sampling the gap distribution to pick the width);
a fully drained calendar demotes back.

Exactness
---------
Pop order is exactly ``(time, seq)`` — bit-identical to the heap
backend for any schedule/cancel program, which the differential property
suite (``tests/property/test_backend_diff.py``) asserts.  Window
membership, promotion and resize points are all functions of the event
times alone, so serial and ``--jobs`` runs behave identically.

Skew handling: the width is re-sampled (3–4× the mean inter-event gap)
whenever occupancy or tombstone pressure trips a resize, and a window
load that finds a whole calendar year empty jumps the cursor straight to
the global minimum instead of stepping bucket by bucket — the two
adaptations that keep heavily skewed timestamp distributions from
degenerating into one-event windows or year-long scans.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Any, Callable, Optional

from .engine import EventHandle, ScheduleInPastError, SimulationError, Simulator

__all__ = ["CalendarSimulator"]


class CalendarSimulator(Simulator):
    """Calendar-queue implementation of the :class:`Simulator` API."""

    backend = "calendar"

    #: largest resident (live + dead) population served by the spine.
    SPINE_MAX = 64
    #: physical bucket counts (always powers of two).
    MIN_BUCKETS = 16
    MAX_BUCKETS = 1 << 16
    #: window width as a multiple of the sampled mean inter-event gap.
    WIDTH_GAP_FACTOR = 3.0
    #: entries sampled (sorted prefix) for the width estimate.
    WIDTH_SAMPLE = 256

    def __init__(self, backend: Optional[str] = None) -> None:
        self._now: float = 0.0
        self._fifo: deque[EventHandle] = deque()
        self._seq: int = 0
        self._running = False
        self._events_executed: int = 0
        self._live: int = 0
        #: cancelled entries still resident in spine/buckets/batch.
        self._dead: int = 0
        self._resizes: int = 0
        # -- spine (bottom rung) ----------------------------------------
        self._spine_mode = True
        self._spine: list[tuple] = []  # (time, seq, ev), sorted ascending
        self._head = 0
        # -- calendar ---------------------------------------------------
        self._nb = self.MIN_BUCKETS
        self._mask = self._nb - 1
        self._width = 1.0
        self._inv_width = 1.0
        self._buckets: list[list[tuple]] = []
        self._size = 0  # entries resident in buckets (live + dead)
        self._cur_vb = 0  # virtual bucket currently being drained
        self._batch: list[tuple] = []  # sorted entries of the current window
        self._bpos = 0
        self._dirty = False  # batch gained entries; re-sort before use
        self._need_resize = False

    # ------------------------------------------------------------------ #
    # introspection (API parity with the heap backend)
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def events_scheduled(self) -> int:
        return self._seq

    @property
    def pending(self) -> int:
        return self._live

    @property
    def heap_compactions(self) -> int:
        """Always 0: there is no heap, hence no heap compaction.

        Tombstones are swept inline during window extraction and resize;
        see :attr:`calendar_resizes` for the backend-specific counter.
        """
        return 0

    @property
    def tombstone_ratio(self) -> float:
        """Always 0.0 — reported clean so dashboards never show a stale
        heap statistic while the calendar backend is active."""
        return 0.0

    @property
    def calendar_resizes(self) -> int:
        """Bucket-array rebuilds (width re-sampling sweeps) so far."""
        return self._resizes

    @property
    def spine_active(self) -> bool:
        """True while the small-queue sorted spine is in use."""
        return self._spine_mode

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        if not delay >= 0:  # spelled so that NaN is rejected too
            raise ScheduleInPastError(f"negative delay {delay!r}")
        return self.at(self._now + delay, fn, *args)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        now = self._now
        if not time >= now:
            raise ScheduleInPastError(
                f"cannot schedule at {time!r}, current time is {now!r}"
            )
        self._seq += 1
        self._live += 1
        if time == now:
            ev = EventHandle(time, self._seq, fn, args, self, in_heap=False)
            self._fifo.append(ev)
            return ev
        ev = EventHandle(time, self._seq, fn, args, self)
        if self._spine_mode:
            # lo=_head: the consumed prefix may retain skipped tombstones
            # with arbitrary times — inserting before the cursor would
            # make the new entry invisible.
            insort(self._spine, (time, self._seq, ev), lo=self._head)
            if len(self._spine) - self._head > self.SPINE_MAX:
                self._promote()
            return ev
        vb = int(time * self._inv_width)
        cur = self._cur_vb
        if vb <= cur:
            if vb == cur:
                self._batch.append((time, self._seq, vb, ev))
                self._dirty = True
                return ev
            # The cursor fast-forwarded past this window (sparse jump);
            # pull it back and refile the in-flight batch.
            buckets = self._buckets
            mask = self._mask
            for e in self._batch[self._bpos :]:
                buckets[e[2] & mask].append(e)
                self._size += 1
            self._batch = []
            self._bpos = 0
            self._dirty = False
            self._cur_vb = vb
        self._buckets[vb & self._mask].append((time, self._seq, vb, ev))
        self._size += 1
        if self._size > 2 * self._nb and self._nb < self.MAX_BUCKETS:
            self._need_resize = True
        return ev

    # ------------------------------------------------------------------ #
    # cancellation bookkeeping
    # ------------------------------------------------------------------ #
    def _note_cancel(self, ev: EventHandle) -> None:
        self._live -= 1
        if not ev._in_heap:
            return  # fifo-lane entries are skipped on popleft
        self._dead += 1
        if self._spine_mode:
            resident = len(self._spine) - self._head
            if self._dead >= 16 and self._dead * 2 >= resident:
                spine = self._spine
                spine[:] = [e for e in spine[self._head :] if e[2]._alive]
                self._head = 0
                self._dead = 0
        elif self._dead >= 64 and self._dead * 2 >= self._size + (
            len(self._batch) - self._bpos
        ):
            self._need_resize = True

    # ------------------------------------------------------------------ #
    # spine <-> calendar transitions
    # ------------------------------------------------------------------ #
    def _promote(self) -> None:
        """Move the spine into calendar buckets (width from spine gaps)."""
        entries = [e for e in self._spine[self._head :] if e[2]._alive]
        self._spine = []
        self._head = 0
        self._spine_mode = False
        self._install(entries)

    def _sample_width(self, times: list[float]) -> float:
        """3x the mean positive gap of a sorted time sample (>= 1e-9)."""
        gaps = [b - a for a, b in zip(times, times[1:]) if b > a]
        if not gaps:
            return max(self._width, 1e-9)
        return max(sum(gaps) / len(gaps) * self.WIDTH_GAP_FACTOR, 1e-9)

    def _install(self, entries: list[tuple]) -> None:
        """(Re)build the bucket array around the live ``entries``.

        ``entries`` may be 3-tuples (from the spine) or 4-tuples (from a
        resize); only ``[0]`` (time), ``[1]`` (seq) and ``[-1]`` (handle)
        are read.
        """
        n = len(entries)
        nb = self.MIN_BUCKETS
        while nb < n and nb < self.MAX_BUCKETS:
            nb <<= 1
        # Sample times with an even stride across the whole entry set: on
        # a resize, entries arrive grouped by physical bucket, so a
        # contiguous prefix spans a few year-wrapped buckets and its gaps
        # overstate the true inter-event spacing (inflating the width
        # geometrically across resizes).  The strided sample's mean gap
        # is ~stride times the per-event gap; divide it back out.
        stride = max(1, n // self.WIDTH_SAMPLE)
        sample = sorted(e[0] for e in entries[::stride])
        width = max(self._sample_width(sample) / stride, 1e-9)
        self._nb = nb
        self._mask = nb - 1
        self._width = width
        self._inv_width = inv = 1.0 / width
        self._buckets = buckets = [[] for _ in range(nb)]
        self._size = n
        self._dead = 0
        self._cur_vb = int(self._now * inv)
        self._batch = []
        self._bpos = 0
        self._dirty = False
        self._need_resize = False
        mask = self._mask
        for e in entries:
            t = e[0]
            vb = int(t * inv)
            buckets[vb & mask].append((t, e[1], vb, e[-1]))
        self._resizes += 1

    def _resize(self) -> None:
        """Rebuild buckets without tombstones, re-sampling the width."""
        entries = [e for b in self._buckets for e in b if e[3]._alive]
        for e in self._batch[self._bpos :]:
            if e[3]._alive:
                entries.append(e)
        self._install(entries)

    # ------------------------------------------------------------------ #
    # window machinery
    # ------------------------------------------------------------------ #
    def _load_next(self) -> bool:
        """Load the next non-empty window into the batch.

        Returns False when the calendar is fully drained (and demotes
        back to the spine for the next burst of scheduling).
        """
        if self._need_resize:
            self._resize()
        if self._size == 0:
            self._spine_mode = True
            self._dead = 0
            return False
        buckets = self._buckets
        mask = self._mask
        vb = self._cur_vb
        for step in range(self._nb):
            b = buckets[(vb + step) & mask]
            if b:
                target = vb + step
                if self._extract(b, target):
                    return True
                if self._size == 0:
                    self._spine_mode = True
                    self._dead = 0
                    return False
        # A whole calendar year is empty: jump straight to the minimum
        # virtual bucket instead of stepping window by window.
        best = None
        for b in buckets:
            for e in b:
                if e[3]._alive and (best is None or e[2] < best):
                    best = e[2]
        if best is None:  # only tombstones remain
            for b in buckets:
                b.clear()
            self._size = 0
            self._dead = 0
            self._spine_mode = True
            return False
        return self._extract(buckets[best & mask], best)

    def _extract(self, bucket: list[tuple], target: int) -> bool:
        """Pull window ``target`` out of ``bucket`` into the sorted batch."""
        batch = []
        keep = []
        dead = 0
        for e in bucket:
            if e[2] == target:
                if e[3]._alive:
                    batch.append(e)
                else:
                    dead += 1
            else:
                keep.append(e)
        removed = len(bucket) - len(keep)
        if removed:
            bucket[:] = keep
            self._size -= removed
            self._dead -= dead
        self._cur_vb = target
        if not batch:
            return False
        batch.sort()
        self._batch = batch
        self._bpos = 0
        self._dirty = False
        return True

    def _next_entry(self) -> Optional[tuple]:
        """Peek the next non-fifo entry (left in place), or None.

        Advances cursors past tombstones and loads windows as needed;
        time only ever moves forward, so peeking commutes with popping.
        """
        if self._spine_mode:
            spine = self._spine
            head = self._head
            n = len(spine)
            while head < n and not spine[head][2]._alive:
                head += 1
                self._dead -= 1
            self._head = head
            if head < n:
                return spine[head]
            if head:
                del spine[:]
                self._head = 0
            return None
        while True:
            if self._dirty:
                rest = self._batch[self._bpos :]
                rest.sort()
                self._batch = rest
                self._bpos = 0
                self._dirty = False
            batch = self._batch
            pos = self._bpos
            n = len(batch)
            while pos < n:
                e = batch[pos]
                if e[3]._alive:
                    self._bpos = pos
                    return e
                pos += 1
                self._dead -= 1
            self._bpos = pos
            if batch:
                self._batch = []
                self._bpos = 0
            if not self._load_next():
                return None

    def _consume(self) -> None:
        """Advance past the entry just returned by :meth:`_next_entry`."""
        if self._spine_mode:
            head = self._head + 1
            if head >= 512 and head * 2 >= len(self._spine):
                del self._spine[:head]
                self._head = 0
            else:
                self._head = head
        else:
            self._bpos += 1

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def peek_next_time(self) -> Optional[float]:
        fifo = self._fifo
        while fifo and not fifo[0]._alive:
            fifo.popleft()
        entry = self._next_entry()
        t = entry[0] if entry is not None else None
        if fifo:
            ft = fifo[0].time
            if t is None or ft < t:
                t = ft
        return t

    def step(self) -> bool:
        fifo = self._fifo
        while fifo and not fifo[0]._alive:
            fifo.popleft()
        entry = self._next_entry()
        if fifo:
            fev = fifo[0]
            if entry is not None and (entry[0], entry[1]) < (fev.time, fev.seq):
                self._consume()
                ev = entry[-1]
            else:
                ev = fifo.popleft()
        elif entry is not None:
            self._consume()
            ev = entry[-1]
        else:
            return False
        self._fire(ev)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        fifo = self._fifo
        popleft = fifo.popleft
        try:
            while True:
                while fifo and not fifo[0]._alive:
                    popleft()
                entry = self._next_entry()
                if fifo:
                    fev = fifo[0]
                    if entry is not None and (entry[0], entry[1]) < (fev.time, fev.seq):
                        ev = entry[-1]
                        t = entry[0]
                        from_fifo = False
                    else:
                        ev = fev
                        t = fev.time
                        from_fifo = True
                elif entry is not None:
                    ev = entry[-1]
                    t = entry[0]
                    from_fifo = False
                else:
                    break
                if until is not None and t > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                if from_fifo:
                    popleft()
                else:
                    self._consume()
                executed += 1
                self._now = t
                ev._fired = True
                self._live -= 1
                fn = ev.fn
                args = ev.args
                ev.fn = None
                ev.args = ()
                self._events_executed += 1
                fn(*args)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        self.run(max_events=max_events)
        if self._live:
            raise SimulationError(
                f"simulation did not converge within {max_events} events"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "spine" if self._spine_mode else f"cal nb={self._nb} w={self._width:g}"
        return (
            f"<Simulator backend=calendar ({mode}) t={self._now:.3f}"
            f" pending={self._live}>"
        )
