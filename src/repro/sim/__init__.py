"""Discrete-event simulation kernel for the NewMadeleine reproduction.

Public surface:

* :class:`~repro.sim.engine.Simulator` — deterministic event loop (time in µs).
* :mod:`~repro.sim.process` — generator processes, :class:`Signal`, combinators.
* :mod:`~repro.sim.flows` — max-min fair flow-level bandwidth sharing.
* :mod:`~repro.sim.backend` — the two kernel backends (heap / native),
  selected via ``Simulator(backend=)`` or ``$REPRO_SIM_BACKEND``.
"""

from .backend import (
    BACKEND_NAMES,
    BackendUnavailableError,
    available_backends,
    flows_mode,
    native_available,
    resolve_backend,
)
from .engine import EventHandle, ScheduleInPastError, SimulationError, Simulator
from .flows import Flow, FlowError, FlowNetwork, Link, make_flow_network, max_min_rates
from .process import AllOf, AnyOf, Process, ProcessError, Signal, Timeout, spawn

__all__ = [
    "Simulator",
    "EventHandle",
    "SimulationError",
    "ScheduleInPastError",
    "Timeout",
    "Signal",
    "Process",
    "AllOf",
    "AnyOf",
    "ProcessError",
    "spawn",
    "Link",
    "Flow",
    "FlowNetwork",
    "FlowError",
    "max_min_rates",
    "make_flow_network",
    "BACKEND_NAMES",
    "BackendUnavailableError",
    "available_backends",
    "flows_mode",
    "native_available",
    "resolve_backend",
]
