"""Generator-coroutine processes on top of the event kernel.

The NewMadeleine progress pump, the benchmark drivers and several tests are
written as *processes*: Python generators that ``yield`` waitable commands.

Supported yield values
----------------------
``Timeout(dt)`` or a bare number ``dt``
    Suspend for ``dt`` microseconds of simulated time.  The bare form is
    the same wait without the wrapper object (the pump yields its CPU
    costs this way); both schedule one identical kernel event.
a *waitable* — any object with ``wait(callback)`` / ``unwait(callback)``
    Suspend until it calls ``callback(value)``; the ``yield`` expression
    returns ``value``.  ``unwait`` withdraws a callback that has not run
    (no-op otherwise).  A process hands its resume to ``wait`` directly
    (:meth:`Process._advance`, or its twin in the native core), an
    :class:`AllOf` its per-child callback, and
    :meth:`Process._arm` (any other combinator child) does the same;
    none knows anything else.  Three classes speak it:
    :class:`Signal` (the value given to ``fire``),
    :class:`Process` (the child's ``return`` value; ``wait`` is ``on_done``)
    and :class:`repro.core.request.Request` (the request itself).  A
    waitable may call back at once, inside ``wait`` (a finished process
    does): the process then resumes at the same instant, in the same frame.
``AllOf([...])`` / ``AnyOf([...])``
    Barrier / first-completion combinators over any of the above.

A wait allocates nothing that outlives it but what it must: a process
registers and schedules one resume callable, made once, and all three
waitables hold their waiters as ``None``, the one callback, or a list
only once a second one registers.

This is deliberately a small subset of what e.g. SimPy provides: only what
the engine needs, implemented deterministically and with explicit failure
modes.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from .engine import SimulationError, Simulator

__all__ = [
    "Timeout",
    "Signal",
    "Process",
    "AllOf",
    "AnyOf",
    "ProcessError",
    "spawn",
]


class ProcessError(SimulationError):
    """Raised when a process is misused (e.g. bad yield value)."""


#: the two markers of ``Process._sync`` (never a value a waitable sends)
_IDLE = object()
_ARMING = object()


class Timeout:
    """Suspend the yielding process for ``dt`` simulated microseconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise ProcessError(f"negative timeout {dt!r}")
        self.dt = dt

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.dt})"


class Signal:
    """A broadcast one-shot-per-fire wake-up condition.

    Multiple processes (and plain callbacks) may wait on a signal; a call to
    :meth:`fire` wakes *all* current waiters exactly once and forgets
    them.  Signals can be fired repeatedly; waiters registered after a
    fire wait for the next one.  This matches the "NIC activity" wake-up
    semantics the engine needs: late subscribers do not see past fires.
    """

    __slots__ = ("sim", "name", "_waiters", "fire_count")

    def __init__(self, sim: Simulator, name: str = "signal"):
        self.sim = sim
        self.name = name
        #: None, the one waiting callback, or a list once a second registers
        #: (false whenever nobody waits: ``Host.wake`` tests it).
        self._waiters: Any = None
        self.fire_count = 0

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` to run on the next fire."""
        waiters = self._waiters
        if waiters is None:
            self._waiters = callback
        elif type(waiters) is list:
            waiters.append(callback)
        else:
            self._waiters = [waiters, callback]

    def unwait(self, callback: Callable[[Any], None]) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        waiters = self._waiters
        if waiters == callback:  # bound methods are equal, not identical
            self._waiters = None
        elif type(waiters) is list and callback in waiters:
            waiters.remove(callback)

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns the number of waiters woken.

        Waiters run *immediately* (synchronously) in registration order.
        The engine relies on this for precise accounting of wake-up costs.
        """
        self.fire_count += 1
        waiters = self._waiters
        if waiters is None:
            return 0
        self._waiters = None
        if type(waiters) is list:
            for cb in waiters:
                cb(value)
            return len(waiters)
        waiters(value)
        return 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Signal {self.name} waiters={self._waiters!r}>"


class AllOf:
    """Waitable combinator: resume when *all* children complete.

    The yield expression evaluates to a list of child results in the order
    the children were given.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]):
        self.children = list(children)
        if not self.children:
            raise ProcessError("AllOf requires at least one child")


class _Join:
    """An armed :class:`AllOf`: the results so far, how many children are
    still pending, and the callback to run once none is."""

    __slots__ = ("results", "pending", "resume")

    def __init__(self, n: int, resume: Callable[[Any], None]):
        self.results: list[Any] = [None] * n
        self.pending = n
        self.resume = resume


class _Arm:
    """Child ``index``'s callback into its :class:`_Join`."""

    __slots__ = ("join", "index")

    def __init__(self, join: _Join, index: int):
        self.join = join
        self.index = index

    def __call__(self, value: Any) -> None:
        join = self.join
        join.results[self.index] = value
        join.pending -= 1
        if not join.pending:
            join.resume(join.results)


class AnyOf:
    """Waitable combinator: resume when the *first* child completes.

    The yield expression evaluates to ``(index, value)`` of the first child
    to complete.  Remaining waits are withdrawn with ``unwait`` (child
    processes keep running; a lost timeout's kernel event runs to no effect).
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]):
        self.children = list(children)
        if not self.children:
            raise ProcessError("AnyOf requires at least one child")


class Process:
    """A running generator process.

    Create via :func:`spawn`.  The generator's ``return`` value becomes
    :attr:`value`; uncaught exceptions are re-raised out of the simulator
    loop (they are programming errors, not simulated failures).
    """

    __slots__ = (
        "sim", "name", "_gen", "_done", "value", "_watchers", "_started",
        "_resume", "_sync",
    )

    def __init__(self, sim: Simulator, gen: Generator, name: str = "proc"):
        self.sim = sim
        self.name = name
        self._gen = gen
        self._done = False
        self.value: Any = None
        #: None, the one on_done callback, or a list once a second registers
        self._watchers: Any = None
        self._started = False
        #: the one callable every wait registers and every delay schedules;
        #: ``_finish`` drops it.  The native core's own (``_advance`` in C),
        #: unless ``_advance`` as the class has it now is not the one below
        #: (a wrapper installed on the class sees every resume).
        make = sim._process_resume
        self._resume: Optional[Callable[[Any], None]] = (
            self._advance if make is None or type(self)._advance is not _ADVANCE
            else make(self, gen)
        )
        #: ``_IDLE``; ``_ARMING`` while ``_arm`` runs; the value of a resume
        #: that arrived during ``_arm``, until ``_advance`` sends it.
        self._sync: Any = _IDLE

    # -- public ----------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    def on_done(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(return_value)`` when the process terminates."""
        watchers = self._watchers
        if self._done:
            callback(self.value)
        elif watchers is None:
            self._watchers = callback
        elif type(watchers) is list:
            watchers.append(callback)
        else:
            self._watchers = [watchers, callback]

    wait = on_done  # a process is a waitable (see the module docstring)

    def unwait(self, callback: Callable[[Any], None]) -> None:
        """Withdraw an :meth:`on_done` callback (no-op if absent)."""
        watchers = self._watchers
        if watchers == callback:
            self._watchers = None
        elif type(watchers) is list and callback in watchers:
            watchers.remove(callback)

    # -- machinery ---------------------------------------------------------
    def _start(self) -> None:
        if self._started:
            raise ProcessError(f"process {self.name} started twice")
        self._started = True
        self._resume(None)

    def _advance(self, send_value: Any) -> None:
        # the reference resume; the native core runs the same in C
        if self._sync is not _IDLE:
            # called back from inside _arm (a finished child): the loop
            # below sends the value, so a run of such yields stays flat
            self._sync = send_value
            return
        gen = self._gen
        while True:
            try:
                yielded = gen.send(send_value)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            cls = type(yielded)  # the two plain delays skip the _arm ladder
            if cls is float and yielded >= 0.0:
                self.sim.schedule(yielded, self._resume, None)
                return
            if cls is Timeout:
                self.sim.schedule(yielded.dt, self._resume, None)
                return
            self._sync = _ARMING
            wait = getattr(yielded, "wait", None)
            if wait is not None:  # a waitable: no _arm frame in between
                wait(self._resume)
            else:
                self._arm(yielded, self._resume)
            send_value, self._sync = self._sync, _IDLE
            if send_value is _ARMING:  # armed: a later callback resumes us
                return

    def _arm(self, yielded: Any, resume: Callable[[Any], None]) -> None:
        """Register ``resume`` to be called when ``yielded`` completes."""
        wait = getattr(yielded, "wait", None)
        if wait is not None:
            wait(resume)
        elif isinstance(yielded, Timeout):
            self.sim.schedule(yielded.dt, resume, None)
        elif isinstance(yielded, AllOf):
            self._arm_all(yielded, resume)
        elif isinstance(yielded, AnyOf):
            self._arm_any(yielded, resume)
        elif isinstance(yielded, (float, int)):
            # bare delays off the fast path: ints, combinator children, negatives
            if yielded < 0:
                raise ProcessError(f"negative timeout {yielded!r}")
            self.sim.schedule(yielded, resume, None)
        else:
            raise ProcessError(
                f"process {self.name} yielded unsupported value {yielded!r}"
            )

    def _arm_all(self, allof: AllOf, resume: Callable[[Any], None]) -> None:
        children = allof.children
        join = _Join(len(children), resume)
        for i, child in enumerate(children):
            wait = getattr(child, "wait", None)
            if wait is not None:  # a waitable: no _arm frame in between
                wait(_Arm(join, i))
            else:
                self._arm(child, _Arm(join, i))

    def _arm_any(self, anyof: AnyOf, resume: Callable[[Any], None]) -> None:
        armed: list = []  # (child, callback) registered so far; the winner empties it

        def make_cb(i: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                if armed:  # else it lost: a timeout's kernel event cannot be withdrawn
                    for j, (child, loser) in enumerate(armed):
                        if j != i and hasattr(child, "unwait"):
                            child.unwait(loser)
                    armed.clear()  # unties callbacks <-> list: nothing for the GC
                    resume((i, value))

            return cb

        for i, child in enumerate(anyof.children):
            cb = make_cb(i)
            armed.append((child, cb))
            self._arm(child, cb)
            if not armed:  # the child had already finished and resumed us
                break

    def _finish(self, value: Any) -> None:
        self._done = True
        self.value = value
        self._resume = None  # the bound method was a cycle through self
        watchers = self._watchers
        if watchers is None:
            return
        self._watchers = None
        if type(watchers) is list:
            for cb in watchers:
                cb(value)
        else:
            watchers(value)

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self._done else "running"
        return f"<Process {self.name} {state}>"


_ADVANCE = Process._advance


def spawn(sim: Simulator, gen: Generator, name: str = "proc", delay: float = 0.0) -> Process:
    """Create a :class:`Process` from a generator and start it.

    The first step of the generator runs ``delay`` microseconds from now
    (default: at the current time, after already-queued events).
    """
    proc = Process(sim, gen, name=name)
    sim.schedule(delay, proc._start)
    return proc
