"""``native`` backend: Simulator facade over the C event core.

The wrapper is intentionally thin: ``schedule`` and ``at`` are bound on
the *instance* directly to the C core's methods, so per-event scheduling
from inside callbacks costs one C call with no Python wrapper frame.
``run``/``step`` delegate to the C run loop, which pops, advances the
clock and invokes callbacks without re-entering the interpreter between
events.  Event handles returned by the core (``NativeEvent``) expose the
same surface as :class:`~repro.sim.engine.EventHandle` (``time``,
``seq``, ``alive``, ``fired``, ``fn``, ``args``, ``cancel()``).

Construct via ``Simulator(backend="native")`` (raises
:class:`~repro.sim.backend.BackendUnavailableError` without a C
toolchain) or let ``auto`` pick it up.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from .engine import SimulationError, Simulator

__all__ = ["NativeSimulator"]


class NativeSimulator(Simulator):
    """C-core implementation of the :class:`Simulator` API."""

    backend = "native"

    def __init__(self, backend: Optional[str] = None) -> None:
        from .backend import BackendUnavailableError
        from .native_build import build_error, load_native_core

        mod = load_native_core()
        if mod is None:  # pragma: no cover - depends on host toolchain
            raise BackendUnavailableError(
                f"native core unavailable: {build_error}"
            )
        self._core = core = mod.Core()
        # Instance-bound C methods: callbacks scheduling new events skip
        # both the wrapper frame and the class-attribute lookup.
        self.schedule = core.schedule
        self.at = core.at
        self.peek_next_time = core.peek_next_time
        self.step = core.step
        # a process resumes through the core's Resume (Process._advance in C)
        self._process_resume = core.resume

    # ------------------------------------------------------------------ #
    # the C core's clock through a C getter: no Python frame per read
    now = property(attrgetter("_core.now"), doc="Current simulated time in microseconds.")

    @property
    def pending(self) -> int:
        return self._core.pending

    @property
    def events_executed(self) -> int:
        return self._core.events_executed

    @property
    def events_scheduled(self) -> int:
        return self._core.events_scheduled

    @property
    def heap_compactions(self) -> int:
        return self._core.heap_compactions

    @property
    def tombstone_ratio(self) -> float:
        n = self._core.heap_size
        return self._core.dead / n if n else 0.0

    # test knob parity with the heap backend
    @property
    def _compact_min_dead(self) -> int:
        return self._core.compact_min_dead

    @_compact_min_dead.setter
    def _compact_min_dead(self, n: int) -> None:
        self._core.compact_min_dead = n

    # ------------------------------------------------------------------ #
    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        self._core.run(until, max_events)

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        self._core.run(None, max_events)
        if self._core.pending:
            raise SimulationError(
                f"simulation did not converge within {max_events} events"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self._core
        return f"<Simulator backend=native t={c.now:.3f} pending={c.pending}>"
