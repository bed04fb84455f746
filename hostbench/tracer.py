"""Host-time tracing from outside: timing wrappers around public names.

A traced pass installs wrappers around a table of dotted names (methods,
functions and generator functions of ``repro``), runs the workload, and
removes them again.  Every wrapper does two things at entry and exit:

* moves the *self-time mark*: the wall time since the previous boundary
  is charged to whatever span was on top of the stack, so the self times
  of all spans (root included) partition the traced total by
  construction — shares sum to 1 without any after-the-fact arithmetic;
* records a span ``(name, start, end, parent)`` in compact arrays.

Targets are resolved at install time.  A name that no longer exists is
reported in :attr:`HostTracer.missing` and simply not wrapped; a layer
all of whose targets are missing reads ``None``.

Wrapper cost lands in the spans it surrounds, so layers made of many
cheap calls read a little high; ``trace.overhead_ratio`` says by how
much the whole pass was slowed.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter
from typing import Any, Iterable, Optional

__all__ = ["LAYERS", "TARGETS", "HostTracer", "resolve"]

#: the repo's modules, in stack order, plus the two spans that are ours.
LAYERS = (
    "sim.engine",
    "sim.process",
    "sim.flows",
    "hardware",
    "drivers",
    "core.session",
    "core.scheduler",
    "core.strategies",
    "core.matching",
    "core.rendezvous",
    "api",
    "mpi",
)
GENERATOR_LAYER = "bench.generator"
ROOT_LAYER = "unattributed"

#: process-name prefixes -> span name of a resumption (first match wins).
#: The pump's body is timed by its own generator span, so ``process.pump``
#: is trampoline only; application generators cannot be wrapped from
#: outside, so ``process.app`` is trampoline plus their bodies.
PROCESS_CLASSES = (
    ("pump", "sim.process.resume.pump", "sim.process"),
    ("hostbench.", "hostbench.generator", GENERATOR_LAYER),
    ("", "sim.process.resume.app", "sim.process"),
)

#: (dotted name, layer, kind).  ``call`` times each call, ``gen`` each
#: resumption of the generator the call returns, ``resume`` is
#: ``Process._advance`` split by process name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.session.Session.run_until_idle", "sim.engine", "call"),
    ("repro.sim.process.Process._advance", "sim.process", "resume"),
    ("repro.sim.process.Signal.fire", "sim.process", "call"),
    ("repro.sim.flows.FlowNetwork.start_flow", "sim.flows", "call"),
    ("repro.sim.flows.FlowNetwork.cancel_flow", "sim.flows", "call"),
    ("repro.sim.flows.FlowNetwork._on_drain", "sim.flows", "call"),
    ("repro.sim.flows.FlowNetwork._finish", "sim.flows", "call"),
    ("repro.hardware.platform.Platform.__init__", "hardware", "call"),
    ("repro.hardware.platform.Platform.dma_path", "hardware", "call"),
    ("repro.hardware.platform.Platform.wire_latency_us", "hardware", "call"),
    ("repro.hardware.wire.Fabric.transmit", "hardware", "call"),
    ("repro.hardware.nic.NIC.deliver", "hardware", "call"),
    ("repro.hardware.nic.NIC.drain_rx", "hardware", "call"),
    ("repro.hardware.host.Host.wake", "hardware", "call"),
    ("repro.drivers.base.Driver.__init__", "drivers", "call"),
    ("repro.drivers.base.Driver.poll", "drivers", "call"),
    ("repro.drivers.base.Driver.post_eager", "drivers", "call"),
    ("repro.drivers.base.Driver.start_dma", "drivers", "call"),
    ("repro.core.session.Session.__init__", "core.session", "call"),
    ("repro.core.session.Session.interface", "core.session", "call"),
    ("repro.core.scheduler.NodeEngine.__init__", "core.scheduler", "call"),
    ("repro.core.scheduler.NodeEngine.submit", "core.scheduler", "call"),
    ("repro.core.scheduler.NodeEngine.post_recv", "core.scheduler", "call"),
    ("repro.core.scheduler.NodeEngine.post_ctrl", "core.scheduler", "call"),
    ("repro.core.scheduler.NodeEngine._pump_loop", "core.scheduler", "gen"),
    ("repro.core.matching.MatchingTable.post_recv", "core.matching", "call"),
    ("repro.core.matching.MatchingTable.arrive", "core.matching", "call"),
    ("repro.core.rendezvous.RdvManager.initiate", "core.rendezvous", "call"),
    ("repro.core.rendezvous.RdvManager.on_ack", "core.rendezvous", "call"),
    ("repro.core.rendezvous.RdvManager.accept", "core.rendezvous", "call"),
    ("repro.core.rendezvous.RdvManager.on_chunk", "core.rendezvous", "call"),
    ("repro.core.rendezvous.RdvManager._chunk_drained", "core.rendezvous", "call"),
    ("repro.api.sendrecv.Interface.isend", "api", "call"),
    ("repro.api.sendrecv.Interface.irecv", "api", "call"),
    ("repro.mpi.comm.CommEndpoint.isend", "mpi", "call"),
    ("repro.mpi.comm.CommEndpoint.irecv", "mpi", "call"),
    ("repro.mpi.collectives.multilane_allreduce", "mpi", "gen"),
    ("repro.mpi.collectives.multilane_barrier", "mpi", "gen"),
    ("repro.mpi.collectives.nic_barrier", "mpi", "gen"),
    ("repro.mpi.collectives._lane_allreduce", "mpi", "gen"),
    ("repro.mpi.collectives._lane_barrier", "mpi", "gen"),
)

_STRATEGY_METHODS = ("pack", "pack_ctrl", "try_and_commit", "observe")

#: spans kept per traced pass (26 bytes each); further ones are only counted.
MAX_SPANS = 4_000_000


def resolve(dotted: str) -> tuple[Any, str]:
    """``(owner, attribute)`` of a dotted name; raises if any part is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        if not hasattr(owner, parts[-1]):
            raise AttributeError(dotted)
        return owner, parts[-1]
    raise ImportError(dotted)


def strategy_targets() -> list[tuple[str, str, str]]:
    """The four contract methods of every registered strategy class."""
    from repro.core.strategies import registry
    from repro.core.strategies.base import Strategy

    classes = {Strategy}
    for name in registry.available_strategies():
        classes.update(
            c for c in registry.strategy_class(name).__mro__
            if issubclass(c, Strategy)
        )
    return [
        (f"{cls.__module__}.{cls.__qualname__}.{method}", "core.strategies", "call")
        for cls in sorted(classes, key=lambda c: (c.__module__, c.__qualname__))
        for method in _STRATEGY_METHODS
        if method in vars(cls)
    ]


class HostTracer:
    """Self-time accounting plus an in-memory span store.

    One instance traces one pass: :meth:`install`, :meth:`start`, run the
    workload, :meth:`stop`, :meth:`uninstall`.
    """

    def __init__(self, targets: Optional[Iterable[tuple[str, str, str]]] = None):
        #: ``None`` means :data:`TARGETS` plus every registered strategy.
        self._targets = list(targets) if targets is not None else None
        #: span names and their layers, indexed by name id; id 0 is the root.
        self.names: list[str] = ["pass"]
        self.layers: list[str] = [ROOT_LAYER]
        self.self_s: list[float] = [0.0]
        self.calls: list[int] = [0]
        #: dotted names that could not be resolved, with the reason.
        self.missing: dict[str, str] = {}
        #: layers that had at least one target in the table.
        self.layers_wanted: set[str] = set()
        self.layers_wrapped: set[str] = set()
        self._installed: list[tuple[Any, str, Any]] = []
        # live state shared with the wrappers through closures
        self._stack: list[int] = [0]  # name ids
        self._open: list[int] = [-1]  # span ids, parallel to _stack
        self._mark = [0.0]
        # spans, one row per call: name id, start, end, parent span id
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.spans_dropped = 0
        self.total_s = 0.0
        self._enter, self._leave = self._boundaries()

    # ------------------------------------------------------------------ #
    # wrapper construction
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.self_s.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def _boundaries(self):
        """``(enter, leave)``: the two operations every wrapper performs."""
        clock, mark = perf_counter, self._mark
        stack, open_spans = self._stack, self._open
        self_s, calls = self.self_s, self.calls
        s_name, s_start, s_end, s_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )

        def enter(idx: int) -> None:
            now = clock()
            self_s[stack[-1]] += now - mark[0]
            mark[0] = now
            calls[idx] += 1
            stack.append(idx)
            sid = len(s_start)
            if sid < MAX_SPANS:
                s_name.append(idx)
                s_start.append(now)
                s_end.append(now)
                s_parent.append(open_spans[-1])
            else:
                self.spans_dropped += 1
                sid = -1
            open_spans.append(sid)

        def leave() -> None:
            now = clock()
            self_s[stack.pop()] += now - mark[0]
            mark[0] = now
            sid = open_spans.pop()
            if sid >= 0:
                s_end[sid] = now

        return enter, leave

    def _wrap_call(self, fn, idx: int):
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def _wrap_gen(self, fn, idx: int):
        enter, leave = self._enter, self._leave

        def resumptions(gen):
            value = None
            send = gen.send
            while True:
                enter(idx)
                try:
                    yielded = send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave()
                value = yield yielded

        def traced(*args, **kwargs):
            return resumptions(fn(*args, **kwargs))

        return traced

    def _wrap_resume(self, fn):
        enter, leave = self._enter, self._leave
        classes = [
            (prefix, self._name_id(name, layer))
            for prefix, name, layer in PROCESS_CLASSES
        ]
        by_name: dict[str, int] = {}

        def traced(proc, value):
            name = proc.name
            idx = by_name.get(name)
            if idx is None:
                idx = by_name[name] = next(
                    i for prefix, i in classes if name.startswith(prefix)
                )
            enter(idx)
            try:
                return fn(proc, value)
            finally:
                leave()

        return traced

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        targets = self._targets
        if targets is None:
            targets = list(TARGETS)
            try:
                targets += strategy_targets()
            except (ImportError, AttributeError) as exc:
                self.layers_wanted.add("core.strategies")
                self.missing["repro.core.strategies.*"] = repr(exc)
        for dotted, layer, kind in targets:
            wanted = {layer, GENERATOR_LAYER} if kind == "resume" else {layer}
            self.layers_wanted |= wanted
            try:
                owner, attr = resolve(dotted)
                # vars() not getattr(): keep staticmethod/classmethod
                # objects intact and never re-wrap an inherited attribute
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing[dotted] = repr(exc)
                continue
            short = dotted.removeprefix("repro.")
            if kind == "resume":
                wrapper = self._wrap_resume(original)
            elif kind == "gen":
                wrapper = self._wrap_gen(original, self._name_id(short, layer))
            else:
                wrapper = self._wrap_call(original, self._name_id(short, layer))
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))
            self.layers_wrapped |= wanted

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def start(self) -> None:
        self._mark[0] = self._t0 = perf_counter()

    def stop(self) -> None:
        now = perf_counter()
        self.self_s[0] += now - self._mark[0]
        self.calls[0] = 1
        self.total_s = now - self._t0

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def calls_of(self, suffix: str) -> int:
        """Total calls of every span whose name ends with ``suffix``."""
        return sum(c for n, c in zip(self.names, self.calls) if n.endswith(suffix))

    def by_layer(self) -> dict[str, Optional[dict[str, float]]]:
        """``{layer: {self_s, calls, share}}``; ``None`` for a layer whose
        every target was missing."""
        out: dict[str, Optional[dict[str, float]]] = {}
        for layer in (*LAYERS, GENERATOR_LAYER, ROOT_LAYER):
            if layer in self.layers_wanted and layer not in self.layers_wrapped:
                out[layer] = None
                continue
            self_s = sum(s for s, l in zip(self.self_s, self.layers) if l == layer)
            calls = sum(c for c, l in zip(self.calls, self.layers) if l == layer)
            out[layer] = {
                "self_s": self_s,
                "calls": calls,
                "share": self_s / self.total_s if self.total_s else 0.0,
            }
        return out

    def by_name(self) -> list[dict[str, Any]]:
        """Per-span-name totals, largest self time first."""
        rows = [
            {"name": n, "layer": l, "self_s": s, "calls": c}
            for n, l, s, c in zip(self.names, self.layers, self.self_s, self.calls)
            if c
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

    def write_spans(self, path: str) -> None:
        """One JSON object per span: name, layer, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, idx in enumerate(self.span_name):
                fh.write(json.dumps({
                    "id": sid,
                    "name": self.names[idx],
                    "layer": self.layers[idx],
                    "start": self.span_start[sid] - self._t0,
                    "end": self.span_end[sid] - self._t0,
                    "parent": self.span_parent[sid],
                }) + "\n")
