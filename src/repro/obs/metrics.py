"""Metrics registry: the schema, the per-node counter bag and the
session's instrument bundle.

Every :class:`~repro.core.session.Session` owns one
:class:`MetricsRegistry`; the engines resolve their instruments (the
counters, gauges and histograms of :mod:`repro.obs.instruments`, all
re-exported here) once at construction time, so the hot paths pay an
increment per count and one list append per histogram observation.

Every metric name used by the engine is declared in :data:`SCHEMA`, and
every name of the per-node :class:`Counters` bag in
:data:`ENGINE_COUNTER_NAMES`.  Tests assert that the engine never emits
an undeclared name, which is what keeps dashboards and the exporters
honest as the system grows.

One owner per count: the pump increments its node's :class:`Counters` bag
and the per-driver tallies, nothing else, and each fact once — the bag's
``sweeps``, ``polls``, ``packets_committed`` and ``segments_submitted``
are derived on read from the driver tallies and the send channels
(``NodeEngine.counters``); the registry instruments that restate them
(``engine.sweeps``, ``engine.poll.count``, ``engine.commit.count``, the
``active.*`` gauges) are *set* from those owners by
``Session.sync_kernel_metrics`` after every run (DESIGN.md §6i).

Naming convention
-----------------
``<subsystem>.<object>.<quantity>[_<unit>]``, labels (e.g. the rail) are
carried separately and rendered as ``name{rail=myri10g}``.  Durations are
microseconds of *simulated* time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Mapping, Optional, Sequence

from .instruments import Counter, Gauge, Histogram, _checked_edges, render_labels

__all__ = [
    "Counter",
    "Counters",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricSpec",
    "SCHEMA",
    "ENGINE_COUNTER_NAMES",
    "render_labels",
]

class MetricSpec:
    """Declared shape of one metric family."""

    __slots__ = ("name", "kind", "unit", "description", "buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        unit: str,
        description: str,
        buckets: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.kind = kind
        self.unit = unit
        self.description = description
        self.buckets = tuple(buckets) if buckets is not None else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricSpec {self.kind} {self.name} [{self.unit}]>"


#: Geometric microsecond edges covering sub-poll costs up to long DMAs.
_US_EDGES = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 3e3, 1e4, 3e4, 1e5)
#: Wrapper wire sizes: from bare control packets to the largest eager limit.
_BYTE_EDGES = (64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0)
#: Optimization-window depth (segments waiting when a wrapper is cut).
_DEPTH_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Every metric the engine emits.  Exporters and tests treat this as the
#: single source of truth; add here before adding an instrument.
SCHEMA: dict[str, MetricSpec] = {
    s.name: s
    for s in (
        MetricSpec(
            "engine.sweeps", "counter", "1",
            "progress-pump sweeps executed (poll+handle+commit)",
        ),
        MetricSpec(
            "engine.poll.count", "counter", "1",
            "driver polls issued, labelled per rail",
        ),
        MetricSpec(
            "engine.poll.idle_us", "counter", "us",
            "CPU time spent polling a rail that returned no packet — the"
            " mandatory multi-rail poll tax of Fig 6, labelled per rail",
        ),
        MetricSpec(
            "engine.commit.count", "counter", "1",
            "packet wrappers committed, labelled per rail",
        ),
        MetricSpec(
            "engine.commit.latency_us", "histogram", "us",
            "submit-to-commit latency of each segment riding a wrapper"
            " (time spent in the optimization window), labelled per rail",
            buckets=_US_EDGES,
        ),
        MetricSpec(
            "engine.commit.wrapper_bytes", "histogram", "B",
            "wire size of committed wrappers, labelled per rail",
            buckets=_BYTE_EDGES,
        ),
        MetricSpec(
            "engine.commit.poll_gap_us", "histogram", "us",
            "time between a sweep's first poll and each commit of that"
            " sweep — how long arrivals/handling delayed the emission",
            buckets=_US_EDGES,
        ),
        MetricSpec(
            "engine.window.depth", "histogram", "1",
            "strategy backlog (optimization-window depth) observed just"
            " before each commit decision that produced a wrapper",
            buckets=_DEPTH_EDGES,
        ),
        MetricSpec(
            "engine.rdv.handshake_us", "histogram", "us",
            "rendezvous lifetime: initiate to last chunk drained",
            buckets=_US_EDGES,
        ),
        MetricSpec(
            "engine.heap_compactions", "counter", "1",
            "in-place event-heap rebuilds triggered by tombstone pressure"
            " (cancelled completion events piling up in the kernel heap)",
        ),
        MetricSpec(
            "engine.tombstone_ratio", "gauge", "1",
            "fraction of event-heap entries that are cancelled tombstones"
            " (last observed at the end of a run)",
        ),
        # active-set scheduling health (O(active) scale-out): published by
        # Session.sync_kernel_metrics after every run
        MetricSpec(
            "active.peak_nodes", "gauge", "1",
            "most node pumps simultaneously runnable (not parked) at any"
            " point of the run — the working set the scheduler actually"
            " paid for, vs. the platform's total node count",
        ),
        MetricSpec(
            "active.engines_built", "gauge", "1",
            "node engines constructed on demand; nodes nothing ever"
            " addressed stay unbuilt and cost nothing",
        ),
        MetricSpec(
            "active.pump_parks", "gauge", "1",
            "times a pump parked on its host activity signal (no progress"
            " and nothing waiting)",
        ),
        MetricSpec(
            "active.pump_wakeups", "gauge", "1",
            "times a parked pump was resumed by a wakeup (submit, packet"
            " arrival, DMA release, timer)",
        ),
        MetricSpec(
            "active.idle_skip_ratio", "gauge", "1",
            "fraction of potential node-sweeps never executed: 1 -"
            " total_sweeps / (n_nodes * busiest node's sweeps); ~1.0 means"
            " idle nodes cost nothing (the O(active) claim)",
        ),
        # fault-injection subsystem (registered only when a FaultPlan is
        # active; a fault-free session emits none of these)
        MetricSpec(
            "fault.events", "counter", "1",
            "fault-plan events applied (downs, degrades, drop/dup budgets)",
        ),
        MetricSpec(
            "fault.lost.eager", "counter", "1",
            "eager wrappers lost to a dead rail or transient send error,"
            " labelled per rail",
        ),
        MetricSpec(
            "fault.lost.chunks", "counter", "1",
            "DMA chunks lost at launch, mid-flight or in the propagation"
            " window, labelled per rail",
        ),
        MetricSpec(
            "fault.retries", "counter", "1",
            "failover retransmissions issued (one per lost wrapper or"
            " chunk), labelled per rail the loss happened on",
        ),
        MetricSpec(
            "fault.rx_dropped", "counter", "1",
            "receiver-side drops of duplicate or late chunks (injected"
            " dups, retries racing their presumed-lost original)",
        ),
        MetricSpec(
            "fault.dup_injected", "counter", "1",
            "duplicate DMA chunk deliveries injected, labelled per rail",
        ),
        MetricSpec(
            "fault.rail_state", "gauge", "1",
            "detected health of one rail: 0=up, 1=degraded, 2=down",
        ),
        MetricSpec(
            "fault.downtime_us", "counter", "us",
            "cumulative physical outage time, labelled per rail",
        ),
        MetricSpec(
            "fault.resamples", "counter", "1",
            "init-time sampling re-runs triggered by detected degrade"
            " transitions (the Fig 7 ratio loop closed at runtime)",
        ),
        # runtime-adaptive strategies (registered only when a feedback or
        # tournament strategy binds; a session running a static strategy
        # emits none of these — the zero-cost-when-unselected guarantee)
        MetricSpec(
            "adaptive.ratio", "gauge", "1",
            "epoch-frozen split ratio of one rail as the adaptive model"
            " currently derives it (normalized over all rails), labelled"
            " per rail",
        ),
        MetricSpec(
            "adaptive.bw_est_MBps", "gauge", "MB/s",
            "EWMA bandwidth estimate of one rail, fed by completed DMA"
            " chunk observations, labelled per rail",
        ),
        MetricSpec(
            "adaptive.observations", "counter", "1",
            "completion observations folded into the rail estimators,"
            " labelled per rail",
        ),
        MetricSpec(
            "adaptive.epochs", "counter", "1",
            "adaptation epochs advanced (model refreezes / tournament"
            " scoring rounds; epochs advance lazily on the sim clock)",
        ),
        MetricSpec(
            "adaptive.switches", "counter", "1",
            "tournament strategy switches (trial-phase rotations plus"
            " hysteresis-cleared exploit switches)",
        ),
        MetricSpec(
            "adaptive.active_strategy", "gauge", "1",
            "registration index of the tournament's currently active"
            " candidate strategy",
        ),
        # live-endpoint families (published by repro.obs.server while a
        # bench/chaos sweep is in flight; never emitted by the engine)
        MetricSpec(
            "live.updates", "counter", "1",
            "snapshot publications since the live endpoint started",
        ),
        MetricSpec(
            "live.progress", "gauge", "1",
            "completed units of the in-flight sweep, labelled by kind"
            " (figures, points, cases)",
        ),
        MetricSpec(
            "live.total", "gauge", "1",
            "total units of the in-flight sweep, labelled by kind",
        ),
    )
}

#: Every name an engine may put into its :class:`Counters` bag;
#: ``tests/obs/test_metrics.py`` asserts engine runs stay inside it.
ENGINE_COUNTER_NAMES = frozenset(
    {
        "sweeps",
        "polls",
        "segments_submitted",
        "bytes_submitted",
        "unexpected_matches",
        "packets_handled",
        "eager_rx",
        "unexpected_eager",
        "rdv_req_rx",
        "rdv_unexpected",
        "rdv_ack_rx",
        "dma_chunks_rx",
        "aggregated_packets",
        "aggregated_segments",
        "packets_committed",
        "pio_offloads",
        "pump_parks",
        "pump_wakeups",
    }
)


class Counters:
    """The per-node named-counter bag: what the pump increments.

    Every node engine owns one.  :meth:`add` is not a "plain integer
    add" — it is a method call plus a string-keyed dict update — so
    per-message and per-sweep code bumps :attr:`counts` in place
    (``counts[name] += n``) and counts per packet, not per entry
    (DESIGN.md §6i).  Figure runners read it to report e.g. how many
    packets were aggregated; tests use it to assert mechanisms ("the
    greedy run really used both NICs").
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def __getitem__(self, name: str) -> int:
        return self.counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy (stable for asserting / diffing)."""
        return dict(self.counts)

    def merge_inplace(self, other: "Counters") -> "Counters":
        """Fold ``other``'s counts into this bag; returns ``self``."""
        for k, v in other.counts.items():
            self.counts[k] += v
        return self

    __iadd__ = merge_inplace

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self.counts.items()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counters({dict(sorted(self.counts.items()))})"


class EngineInstruments:
    """Every instrument the pumps and ``sync_kernel_metrics`` write,
    resolved once per session.

    All engines of a session report into the same per-rail instruments
    (the registry keys them by name and labels), so one bundle serves
    them all: an engine constructor does no registry look-up, and
    publishing after a run does none either.  Per-rail lists are indexed
    by rail index.

    The bundle's ``(key, class, edges)`` list depends on the rail names
    only: it is resolved once per tuple of names and then built straight
    into the registry (:meth:`MetricsRegistry._build`), so a session pays
    one constructor call per instrument, not a name, label and edge
    look-up each.
    """

    __slots__ = (
        "poll_idle_us", "commit_latency_us", "wrapper_bytes", "poll_gap_us",
        "window_depth", "handshake_us", "poll_count", "commit_count",
        "heap_compactions", "tombstone_ratio", "sweeps", "active",
    )

    #: every family of the bundle, in registration order:
    #: ``(slot, kind, name, one per rail)``
    _FAMILIES = (
        ("poll_idle_us", Counter, "engine.poll.idle_us", True),
        ("commit_latency_us", Histogram, "engine.commit.latency_us", True),
        ("wrapper_bytes", Histogram, "engine.commit.wrapper_bytes", True),
        ("poll_gap_us", Histogram, "engine.commit.poll_gap_us", False),
        ("window_depth", Histogram, "engine.window.depth", False),
        ("handshake_us", Histogram, "engine.rdv.handshake_us", False),
        ("poll_count", Counter, "engine.poll.count", True),
        ("commit_count", Counter, "engine.commit.count", True),
        ("heap_compactions", Counter, "engine.heap_compactions", False),
        ("tombstone_ratio", Gauge, "engine.tombstone_ratio", False),
        ("sweeps", Counter, "engine.sweeps", False),
    )

    #: ``active.*`` gauge -> the ``Session.active_health`` field it shows
    _ACTIVE = (
        ("active.peak_nodes", "peak_active_nodes"),
        ("active.engines_built", "engines_built"),
        ("active.pump_parks", "pump_parks"),
        ("active.pump_wakeups", "pump_wakeups"),
        ("active.idle_skip_ratio", "idle_skip_ratio"),
    )
    _ACTIVE_FIELDS = tuple(field for _, field in _ACTIVE)

    #: rail names -> the bundle's ``(key, class, edges)`` triples (a memo
    #: of :meth:`_layout`, which depends on nothing else)
    _layouts: dict[tuple[str, ...], tuple] = {}

    def __init__(self, metrics: "MetricsRegistry", rails: Sequence):
        names = tuple([str(rail.name) for rail in rails])
        layout = self._layouts.get(names)
        if layout is None:
            layout = self._layouts[names] = self._layout(names)
        made = metrics._build(layout)
        n_rails = len(names)
        at = 0
        for slot, _, _, per_rail in self._FAMILIES:
            if per_rail:
                setattr(self, slot, made[at:at + n_rails])
                at += n_rails
            else:
                setattr(self, slot, made[at])
                at += 1
        self.active = list(zip(made[at:], self._ACTIVE_FIELDS))

    @classmethod
    def _layout(cls, names: tuple[str, ...]) -> tuple:
        layout = []
        for _, kind, name, per_rail in cls._FAMILIES:
            edges = SCHEMA[name].buckets if kind is Histogram else None
            if per_rail:
                layout += [((name, (("rail", rail),)), kind, edges) for rail in names]
            else:
                layout.append(((name, ()), kind, edges))
        layout += [((name, ()), Gauge, None) for name, _ in cls._ACTIVE]
        return tuple(layout)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    if len(labels) == 1:
        for k, v in labels.items():
            return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create home for all instruments of one session.

    Instruments are keyed by ``(name, labels)``; asking twice returns the
    same object, which is how engines resolve hot-path instruments once.
    """

    def __init__(self, strict: bool = False):
        #: with ``strict=True`` undeclared names raise instead of passing
        #: through (tests run strict; production code stays permissive so
        #: user extensions can piggyback on the registry).
        self.strict = strict
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    # -- instrument factories ------------------------------------------------
    def _get(self, cls, name: str, labels: Mapping[str, str], *args):
        key = (name, _label_key(labels))
        inst = self._metrics.get(key)
        if inst is None:
            if self.strict and name not in SCHEMA:
                raise KeyError(f"metric {name!r} is not declared in obs.metrics.SCHEMA")
            inst = self._metrics[key] = cls(name, *args, labels=key[1])
        else:
            self._check_kind(inst, cls, name, *args)
        return inst

    @staticmethod
    def _check_kind(inst, cls, name: str, edges: Optional[Sequence[float]] = None) -> None:
        """Refuse a second registration of ``name`` as another kind, or as
        a histogram with other edges."""
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__},"
                f" not {cls.__name__}"
            )
        if edges is not None:
            wanted = _checked_edges(name, edges)
            if inst.edges != wanted:
                raise ValueError(
                    f"histogram {name!r} already registered with edges"
                    f" {inst.edges}, not {wanted}"
                )

    def _build(self, layout: Sequence) -> list:
        """The instruments of ``(key, class, edges)`` triples, in order:
        made straight into the registry where the key is new, else the
        registered one (kind and edges checked as :meth:`_get` does)."""
        metrics = self._metrics
        if self.strict:
            for (name, _), _, _ in layout:
                if name not in SCHEMA:
                    raise KeyError(f"metric {name!r} is not declared in obs.metrics.SCHEMA")
        made = []
        for key, cls, edges in layout:
            inst = metrics.get(key)
            if inst is None:
                if edges is None:
                    inst = metrics[key] = cls(key[0], labels=key[1])
                else:
                    inst = metrics[key] = cls(key[0], edges, key[1])
            else:
                self._check_kind(inst, cls, key[0], edges)
            made.append(inst)
        return made

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None, **labels: str
    ) -> Histogram:
        if edges is None:
            spec = SCHEMA.get(name)
            if spec is None or spec.buckets is None:
                raise KeyError(
                    f"histogram {name!r} has no declared buckets; pass edges="
                )
            edges = spec.buckets
        return self._get(Histogram, name, labels, edges)

    # -- introspection -------------------------------------------------------
    def __iter__(self) -> Iterator[object]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> set[str]:
        """Distinct metric family names registered so far."""
        return {name for name, _labels in self._metrics}

    def undeclared(self) -> set[str]:
        """Registered family names missing from :data:`SCHEMA`."""
        return self.names() - set(SCHEMA)

    def snapshot(self) -> dict[str, object]:
        """Plain-dict dump keyed by rendered name (stable for asserts)."""
        out: dict[str, object] = {}
        for inst in self._metrics.values():
            if isinstance(inst, Histogram):
                out[inst.full_name] = inst.snapshot()
            else:
                out[inst.full_name] = inst.value  # type: ignore[union-attr]
        return dict(sorted(out.items()))

    def merge_inplace(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's instruments into this one (same-shape
        histograms sum bucket-wise); used when aggregating sessions."""
        for key, inst in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(inst, Histogram):
                    mine = self._metrics[key] = Histogram(inst.name, inst.edges, labels=key[1])
                else:
                    mine = self._metrics[key] = type(inst)(inst.name, labels=key[1])
            if isinstance(inst, Histogram):
                mine.merge_inplace(inst)  # type: ignore[union-attr]
            elif isinstance(inst, Counter):
                mine.add(inst.value)  # type: ignore[union-attr]
            else:
                mine.set(inst.value)  # type: ignore[union-attr]
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricsRegistry {len(self)} instruments>"
