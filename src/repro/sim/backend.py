"""Kernel backend selection: heap, calendar and native event cores.

The simulation kernel has three co-resident implementations behind the
one :class:`~repro.sim.engine.Simulator` API (see DESIGN.md "Kernel
backends"):

``heap``
    The original tombstoned binary heap (``engine.py``).  Pure Python,
    battle-tested, kept unchanged as the differential-testing reference.
``calendar``
    A pure-Python calendar queue (``calendar_queue.py``): events are
    binned into time windows, popped as batch-sorted windows instead of
    per-event heap operations.  Wins on cancellation churn and widely
    spread timestamps; a sorted-spine fallback keeps small queues (the
    ladder's bottom rung) at heap speed.
``native``
    A hand-written CPython extension (``_nativecore.c``): the event heap
    is a C array of structs and the run loop never re-enters Python
    between events.  Built on demand with the system C compiler and
    cached; unavailable when no compiler is present.

Selection (first match wins):

1. ``Simulator(backend="...")`` / ``Session(backend="...")``;
2. the ``REPRO_SIM_BACKEND`` environment variable (this is how
   ``repro bench run --backend`` propagates the choice to ``--jobs``
   worker processes — the env var is inherited on fork and spawn);
3. ``auto``: ``native`` when a compiler is available, else ``calendar``.

Every backend preserves the exact ``(time, seq)`` pop order, so figure
results are bit-identical across backends — CI gates on this with a
``--sim-tol 0`` cross-backend compare.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "BACKEND_NAMES",
    "BackendUnavailableError",
    "available_backends",
    "native_available",
    "resolve_backend",
    "simulator_class",
    "flows_mode",
]

#: selectable kernel backends (``auto`` resolves to one of these).
BACKEND_NAMES = ("heap", "calendar", "native")

ENV_BACKEND = "REPRO_SIM_BACKEND"


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend cannot be provided on this host."""


def native_available() -> bool:
    """True when the compiled native core can be imported (builds and
    caches it on first call; never raises)."""
    from .native_build import load_native_core

    return load_native_core() is not None


def available_backends() -> list[str]:
    """Backends usable on this host, in preference order."""
    names = ["heap", "calendar"]
    if native_available():
        names.append("native")
    return names


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete backend name.

    ``name`` of ``None`` falls back to ``$REPRO_SIM_BACKEND``, then to
    ``auto``.  ``auto`` prefers the native core and falls back to the
    pure-Python calendar queue.  Explicitly requesting ``native`` on a
    host without a C toolchain raises :class:`BackendUnavailableError`
    (``auto`` never does).
    """
    req = (name or os.environ.get(ENV_BACKEND, "") or "auto").strip().lower()
    if req == "auto":
        return "native" if native_available() else "calendar"
    if req not in BACKEND_NAMES:
        raise ValueError(
            f"unknown simulator backend {req!r}; choose from "
            f"{('auto',) + BACKEND_NAMES}"
        )
    if req == "native" and not native_available():
        raise BackendUnavailableError(
            "native backend requested but no C compiler / python headers"
            " are available on this host (set REPRO_SIM_BACKEND=calendar"
            " or =heap, or install a C toolchain)"
        )
    return req


def simulator_class(name: str):
    """The concrete :class:`Simulator` subclass for a resolved backend."""
    if name == "heap":
        from .engine import Simulator

        return Simulator
    if name == "calendar":
        from .calendar_queue import CalendarSimulator

        return CalendarSimulator
    if name == "native":
        from .native import NativeSimulator

        return NativeSimulator
    raise ValueError(f"unknown simulator backend {name!r}")


def flows_mode() -> str:
    """Name of the flow allocator, for run headers and bench records.

    There is one (:class:`repro.sim.flows.FlowNetwork`, the scalar
    incremental max-min allocator); nothing selects it.
    """
    return "scalar"
