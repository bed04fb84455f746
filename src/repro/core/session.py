"""Session façade: platform + engines + strategy, ready to communicate.

A :class:`Session` is the top-level object a user builds::

    from repro import Session, paper_platform

    session = Session(paper_platform(), strategy="split_balance")
    a, b = session.interface(0), session.interface(1)
    ... spawn processes that isend/irecv ...
    session.run_until_idle()

One strategy *instance per node* is created from the registry (strategies
are stateful).  Sampling (`repro.core.sampling`) is not run implicitly —
pass a precomputed :class:`~repro.core.sampling.SampleTable` via
``samples=`` (the figure runners sample once and share the table across
the sweep); strategies that want samples but get none fall back to spec
parameters explicitly.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, Optional

from ..hardware.platform import Platform
from ..hardware.spec import PlatformSpec
from ..obs.metrics import Counters, EngineInstruments, MetricsRegistry
from ..obs.spans import SpanRecorder
from ..sim.engine import Simulator
from ..sim.process import Process, spawn
from ..util.errors import ConfigError
from .sampling import SampleTable
from .scheduler import NodeEngine
from .strategies.base import Strategy
from .strategies.registry import make_strategy

__all__ = ["Session"]


class _EngineList:
    """List-like home of the node engines, built lazily on first touch.

    Engine construction (drivers, instruments, the pump process) is the
    dominant cost of opening a session on a large platform, and a
    1000-node run with 8 talkers only ever touches 8 engines.  Indexing
    builds on demand; ``len``/``in``-style uses see the full node count;
    iterating materializes everything (the introspection paths want
    every engine, and say so by iterating).  Hot internal paths iterate
    :meth:`built` instead.
    """

    __slots__ = ("_make", "_engines", "built_count")

    def __init__(self, n_nodes: int, make):
        self._make = make
        self._engines: list[Optional[NodeEngine]] = [None] * n_nodes
        self.built_count = 0

    def __len__(self) -> int:
        return len(self._engines)

    def __getitem__(self, node_id):
        if isinstance(node_id, slice):
            return [self[i] for i in range(*node_id.indices(len(self._engines)))]
        engine = self._engines[node_id]
        if engine is None:
            if node_id < 0:
                node_id += len(self._engines)
            engine = self._engines[node_id] = self._make(node_id)
            self.built_count += 1
        return engine

    def __iter__(self):
        for i in range(len(self._engines)):
            yield self[i]

    def built(self) -> list[NodeEngine]:
        """Only the engines that exist — zero cost for idle nodes."""
        return [e for e in self._engines if e is not None]


class Session:
    """A live NewMadeleine instance over a simulated platform."""

    def __init__(
        self,
        spec: PlatformSpec,
        strategy: Any = "aggreg",
        strategy_opts: Optional[Mapping[str, Any]] = None,
        samples: Optional[SampleTable] = None,
        sim: Optional[Simulator] = None,
        trace: bool = False,
        faults: Any = None,
        backend: Optional[str] = None,
    ):
        if not isinstance(spec, PlatformSpec):
            raise ConfigError(f"spec must be a PlatformSpec, got {type(spec).__name__}")
        self.spec = spec
        #: ``backend`` picks the kernel implementation (heap / native);
        #: ``None`` defers to ``$REPRO_SIM_BACKEND`` then auto.
        self.sim = sim if sim is not None else Simulator(backend=backend)
        self.platform = Platform(self.sim, spec)
        self.samples = samples
        if not isinstance(trace, bool):
            raise ConfigError(f"trace must be a bool, got {type(trace).__name__}")
        #: span-based timeline (pump phases, per-rail PIO/DMA, rendezvous).
        self.spans = SpanRecorder(enabled=trace)
        #: always-on counters/gauges/histograms (schema: repro.obs.metrics).
        self.metrics = MetricsRegistry()
        #: what the pumps and :meth:`sync_kernel_metrics` write, resolved once
        self.instruments = EngineInstruments(self.metrics, spec.rails)
        if isinstance(strategy, Strategy):
            raise ConfigError(
                "pass a strategy name or class, not an instance: strategies"
                " are stateful and every node needs its own"
            )
        opts = dict(strategy_opts or {})
        # active-set accounting (see active_health): how many pumps are
        # runnable right now, and the high-water mark of that number.
        self._active_pumps = 0
        self._peak_active = 0

        self._session_stopped = False

        def _make_engine(node_id: int) -> NodeEngine:
            self.platform.hosts[node_id].engine_hook = None
            engine = NodeEngine(self, node_id, make_strategy(strategy, **opts))
            if self._session_stopped:
                engine.stop()
            return engine

        #: the fault injector, or None (no plan, or an empty one): the one
        #: handle of the fault layer.  It exists before any engine does — an
        #: engine reads it, and each rail's detected health, when it is built.
        self.faults = None
        if faults is not None and not faults.empty:
            from ..faults.injector import FaultInjector

            self.faults = FaultInjector(self, faults)
        #: engines are built lazily: touching ``engines[i]`` (or asking
        #: for an interface) constructs node *i*'s engine; a packet
        #: landing on a never-touched node builds it via the host's
        #: first-wake hook.  Idle nodes of a large platform therefore
        #: cost neither construction time nor pump events.
        self.engines = _EngineList(spec.n_nodes, _make_engine)
        for node_id, host in enumerate(self.platform.hosts):
            host.engine_hook = (lambda nid=node_id: self.engines[nid])
        # build node 0 eagerly: a bad strategy name or option must fail
        # the constructor, not the first lazy touch.
        self.engines[0]
        self._interfaces: dict[int, Any] = {}

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def engine(self, node_id: int) -> NodeEngine:
        """One node's engine.  ``interface`` and ``counters`` come through
        here, so this is where a negative id is refused, not wrapped."""
        if not 0 <= node_id < len(self.engines):
            raise ConfigError(f"no node {node_id} (have {len(self.engines)})")
        return self.engines[node_id]

    def interface(self, node_id: int):
        """The collect-layer API of one node (cached per node)."""
        iface = self._interfaces.get(node_id)
        if iface is None:
            # imported here: ``import repro.core.session`` loads no API module
            from ..api.sendrecv import Interface

            iface = self._interfaces[node_id] = Interface(self.engine(node_id))
        return iface

    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def spawn(self, gen: Generator, name: str = "app") -> Process:
        """Start an application process on the session's simulator."""
        return spawn(self.sim, gen, name=name)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)
        self.sync_kernel_metrics()

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        self.sim.run_until_idle(max_events=max_events)
        self.sync_kernel_metrics()

    def sync_kernel_metrics(self) -> None:
        """Publish what the owners counted into the registry.

        One owner increments, this publishes: the kernel's heap stats,
        the per-node counter bags and the per-driver tallies are *set*
        here — never accumulated — so the pump pays for each count once
        and calling this again changes nothing.  Runs automatically
        after :meth:`run` / :meth:`run_until_idle`; cheap enough to call
        at any probe point.
        """
        sim = self.sim
        inst = self.instruments
        inst.heap_compactions.value = sim.heap_compactions
        inst.tombstone_ratio.value = sim.tombstone_ratio
        health = self.active_health()
        inst.sweeps.value = health["total_sweeps"]
        polls = [0] * len(inst.poll_count)
        for engine in self.engines.built():
            for idx, driver in enumerate(engine.drivers):
                polls[idx] += driver.polls
        for idx, counter in enumerate(inst.poll_count):
            counter.value = polls[idx]
            inst.commit_count[idx].value = inst.wrapper_bytes[idx].count
        for gauge, field in inst.active:
            gauge.value = health[field]

    # -- active-set accounting (the pumps park and wake inline) -----------
    def _pump_started(self) -> None:
        self._active_pumps += 1
        if self._active_pumps > self._peak_active:
            self._peak_active = self._active_pumps

    def _pump_stopped(self) -> None:
        self._active_pumps -= 1

    def active_health(self) -> dict[str, Any]:
        """Active-set scheduling health of the run so far.

        ``peak_active_nodes`` is the most pumps simultaneously runnable
        (not parked) at any point; ``idle_skip_ratio`` compares the
        sweeps actually executed against a world where every node swept
        as often as the busiest one (1.0 - ratio of work done) — near
        1.0 on a mostly-idle large platform, 0.0 when every node is as
        busy as the busiest.
        """
        total_sweeps = max_sweeps = pump_parks = pump_wakeups = 0
        for engine in self.engines.built():
            # what ``NodeEngine.counters`` reads, without a frame per engine
            sweeps = engine.lead_driver.polls
            counts = engine._counters.counts
            total_sweeps += sweeps
            if sweeps > max_sweeps:
                max_sweeps = sweeps
            pump_parks += counts.get("pump_parks", 0)
            pump_wakeups += counts.get("pump_wakeups", 0)
        n = self.spec.n_nodes
        events = self.sim.events_executed
        return {
            "n_nodes": n,
            "engines_built": self.engines.built_count,
            "peak_active_nodes": self._peak_active,
            "active_nodes_now": self._active_pumps,
            "pump_parks": pump_parks,
            "pump_wakeups": pump_wakeups,
            "wakeups_per_event": pump_wakeups / events if events else 0.0,
            "total_sweeps": total_sweeps,
            "idle_skip_ratio": (
                1.0 - total_sweeps / (n * max_sweeps) if max_sweeps else 0.0
            ),
        }

    def stop(self) -> None:
        """Shut down all pumps (not required for the sim to terminate).

        Sticky: an engine built after ``stop()`` starts stopped.
        """
        self._session_stopped = True
        for engine in self.engines.built():
            engine.stop()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def counters(self, node_id: Optional[int] = None) -> Counters:
        """Counters of one node, or all nodes merged."""
        if node_id is not None:
            return self.engine(node_id).counters
        merged = Counters()
        for engine in self.engines.built():
            merged += engine.counters
        return merged

    def __repr__(self) -> str:  # pragma: no cover
        rails = ",".join(r.name for r in self.spec.rails)
        return f"<Session nodes={self.n_nodes} rails=[{rails}]>"
