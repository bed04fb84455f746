"""Kernel backend selection: the heap reference and the native C core.

The simulation kernel has two implementations behind the one
:class:`~repro.sim.engine.Simulator` API (see DESIGN.md "Kernel
backends"):

``heap``
    The tombstoned binary heap (``engine.py``).  Pure Python, kept
    unchanged as the differential-testing reference — and the core every
    host without a C toolchain runs.
``native``
    A hand-written CPython extension (``_nativecore.c``): a C array of
    event structs and a run loop that never re-enters Python between
    events.  Built on demand, cached; absent when no C compiler is.

Selection (first match wins):

1. ``Simulator(backend="...")`` / ``Session(backend="...")``;
2. the ``REPRO_SIM_BACKEND`` environment variable (``repro bench run
   --backend`` sets it, so ``--jobs`` workers inherit the choice);
3. ``auto``: ``native`` when the C core loads, else ``heap``.

Both preserve the exact ``(time, seq)`` pop order, so figure results are
bit-identical across backends; CI gates on it (``compare --sim-tol 0``).
"""

from __future__ import annotations

import os
from typing import Optional

from ..util.errors import ConfigError

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
BACKEND_NAMES = ("heap", "native")

ENV_BACKEND = "REPRO_SIM_BACKEND"

_CHOICES = ", ".join(("auto",) + BACKEND_NAMES)


class BackendUnavailableError(ConfigError):
    """An explicitly requested backend cannot be provided on this host."""


def native_available() -> bool:
    """True when the compiled native core can be imported (builds and
    caches it on first call; never raises)."""
    from .native_build import load_native_core

    return load_native_core() is not None


def available_backends() -> list[str]:
    """Backends usable on this host, reference first."""
    return ["heap", "native"] if native_available() else ["heap"]


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete backend name.

    ``name`` of ``None`` falls back to ``$REPRO_SIM_BACKEND``, then to
    ``auto``, which never fails: the native core, else the heap
    reference.  An unknown name raises ``ConfigError``, an explicit
    ``native`` where the C core does not load
    :class:`BackendUnavailableError` (a ``ConfigError`` too); both
    messages are one line and list the valid names.
    """
    req = (name or os.environ.get(ENV_BACKEND, "") or "auto").strip().lower()
    if req == "auto":
        return "native" if native_available() else "heap"
    if req not in BACKEND_NAMES:
        removed = " (the calendar backend was removed; heap is the pure-Python core)"
        raise ConfigError(
            f"unknown simulator backend {req!r}{removed if req == 'calendar' else ''};"
            f" choose from {_CHOICES}"
        )
    if req == "native" and not native_available():
        from .native_build import build_error  # just set by the failed load

        # first line only: a failed compile keeps the compiler's stderr
        why = (build_error or "the C core did not load").splitlines()[0]
        raise BackendUnavailableError(
            f"simulator backend 'native' is unavailable on this host ({why});"
            f" choose from {_CHOICES}"
        )
    return req


def simulator_class(name: str):
    """The concrete :class:`Simulator` subclass for a resolved backend."""
    if name == "heap":
        from .engine import Simulator

        return Simulator
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
