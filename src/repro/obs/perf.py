"""Benchmark run registry: self-describing ``BENCH_<name>.json`` records.

PR 1 gave single runs rich telemetry; this module makes runs *comparable
across time*.  A :class:`BenchRecorder` collects

* **points** — per-(benchmark, curve, size) simulated results
  (one-way latency, bandwidth).  The simulation is deterministic, so two
  runs of the same code must agree bit-for-bit; any drift is a real
  behavioural change and :mod:`repro.obs.compare` gates on it;
* **wall-clock costs** — wall seconds of the substrate micro-benchmarks
  (event kernel, flow reallocation, full ping-pong).  Noisy by nature,
  recorded as all reps + median, and *report-only* in the gate;
* **a metrics snapshot** — the PR 1 registry counters (idle-poll tax,
  wrapper sizes, optimization-window depth) from a canonical probe
  workload, so a perf number always travels with the counters that
  explain it;
* **provenance** — git SHA (+dirty flag), python/platform strings, the
  full :class:`~repro.hardware.spec.PlatformSpec` and its SHA-256, and
  the record schema version.

Records are plain JSON (:meth:`BenchRecord.to_dict` /
:meth:`BenchRecord.from_dict`); committed baselines live under
``bench_results/baselines/``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import platform as _platform_mod
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from ..util.errors import BenchError

__all__ = [
    "SCHEMA_VERSION",
    "BenchRecord",
    "BenchRecorder",
    "platform_hash",
    "git_revision",
    "load_record",
    "pingpong_point",
    "flood_point",
    "metrics_probe",
    "run_engine_suite",
    "run_figure_suite",
    "ENGINE_BENCHES",
]

#: bump when the record layout changes incompatibly.
SCHEMA_VERSION = "repro.bench_record/1"


def platform_hash(spec) -> str:
    """SHA-256 of the canonical JSON form of a :class:`PlatformSpec`.

    Two records are only comparable when their platform hashes agree —
    a different testbed legitimately produces different numbers.
    """
    blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def git_revision(cwd: Optional[str] = None) -> tuple[Optional[str], bool]:
    """Best-effort ``(sha, dirty)`` of the enclosing git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=cwd, capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        )
        return sha, dirty
    except (OSError, subprocess.SubprocessError):
        return None, False


# --------------------------------------------------------------------- #
# point helpers (shared with the CLI --json output)
# --------------------------------------------------------------------- #
def pingpong_point(
    result, *, bench: str = "pingpong", curve: str = "", strategy: str = ""
) -> dict[str, Any]:
    """One run-record point from a :class:`PingPongResult`."""
    return {
        "kind": "pingpong",
        "bench": bench,
        "curve": curve,
        "strategy": strategy,
        "size": result.total_size,
        "segments": result.segments,
        "reps": result.reps,
        "one_way_us": result.one_way_us,
        "bandwidth_MBps": result.bandwidth_MBps,
    }


def flood_point(
    result, *, bench: str = "flood", curve: str = "", strategy: str = ""
) -> dict[str, Any]:
    """One run-record point from a :class:`FloodResult`."""
    return {
        "kind": "flood",
        "bench": bench,
        "curve": curve,
        "strategy": strategy,
        "size": result.message_size,
        "count": result.count,
        "window": result.window,
        "elapsed_us": result.elapsed_us,
        "throughput_MBps": result.throughput_MBps,
        "message_rate_per_ms": result.message_rate_per_ms,
    }


def point_key(point: Mapping[str, Any]) -> tuple:
    """Identity of a point for cross-run matching (not its values)."""
    return (
        point.get("kind", "?"),
        point.get("bench", "?"),
        point.get("curve", ""),
        point.get("strategy", ""),
        point.get("size", 0),
        point.get("segments", 1),
        point.get("count", 0),
        point.get("window", 0),
    )


#: point fields that are deterministic simulated results (gateable).
SIM_FIELDS = (
    "one_way_us",
    "bandwidth_MBps",
    "elapsed_us",
    "throughput_MBps",
    "message_rate_per_ms",
)


@dataclass
class BenchRecord:
    """One benchmark run, ready to serialize / compare."""

    name: str
    created_unix: float
    git_sha: Optional[str]
    git_dirty: bool
    python: str
    platform_info: str
    spec: dict[str, Any]
    spec_sha256: str
    points: list[dict[str, Any]] = field(default_factory=list)
    wall_clock_s: dict[str, dict[str, Any]] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    #: event-log correlation id of the producing invocation (optional —
    #: the run ledger links a record to its events/chaos cases by it).
    run_id: Optional[str] = None
    #: resolved simulation-kernel backend the run used (optional; absent
    #: in records predating pluggable backends).
    backend: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        d = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "created_unix": self.created_unix,
            "git_sha": self.git_sha,
            "git_dirty": self.git_dirty,
            "python": self.python,
            "platform_info": self.platform_info,
            "spec": self.spec,
            "spec_sha256": self.spec_sha256,
            "points": self.points,
            "wall_clock_s": self.wall_clock_s,
            "metrics": self.metrics,
        }
        if self.run_id is not None:
            d["run_id"] = self.run_id
        if self.backend is not None:
            d["backend"] = self.backend
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise BenchError(
                f"unsupported bench record schema {schema!r} (want {SCHEMA_VERSION!r})"
            )
        return cls(
            name=data.get("name", "?"),
            created_unix=float(data.get("created_unix", 0.0)),
            git_sha=data.get("git_sha"),
            git_dirty=bool(data.get("git_dirty", False)),
            python=data.get("python", "?"),
            platform_info=data.get("platform_info", "?"),
            spec=copy.deepcopy(dict(data.get("spec", {}))),
            spec_sha256=data.get("spec_sha256", ""),
            points=copy.deepcopy(list(data.get("points", []))),
            wall_clock_s=copy.deepcopy(dict(data.get("wall_clock_s", {}))),
            metrics=copy.deepcopy(dict(data.get("metrics", {}))),
            run_id=data.get("run_id"),
            backend=data.get("backend"),
        )

    def write(self, path: str) -> str:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path


def load_record(path: str) -> BenchRecord:
    """Load a ``BENCH_*.json`` record from disk."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read bench record {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchError(f"bench record {path} is not valid JSON: {exc}") from exc
    return BenchRecord.from_dict(data)


class BenchRecorder:
    """Accumulates one run's points / wall-clocks / metrics into a record.

    The recorder is deliberately passive — benchmarks push into it —
    so the same instance serves the CLI runner, the pytest-benchmark
    conftest hooks, and the tests.
    """

    def __init__(
        self,
        name: str,
        spec=None,
        run_id: Optional[str] = None,
        backend: Optional[str] = None,
    ):
        from ..hardware.presets import paper_platform

        self.name = name
        self.run_id = run_id
        self.backend = backend
        self._spec = spec if spec is not None else paper_platform()
        self._points: list[dict[str, Any]] = []
        self._wall: dict[str, dict[str, Any]] = {}
        self._metrics: dict[str, Any] = {}

    # -- collection ----------------------------------------------------------
    def record_point(self, point: Mapping[str, Any]) -> None:
        self._points.append(dict(point))

    def record_figure(self, result) -> int:
        """Record every (curve, size) point of a :class:`FigureResult`."""
        n = 0
        for label in result.sweep.curves:
            for size, pp in result.sweep.results[label].items():
                self.record_point(
                    pingpong_point(pp, bench=result.figure_id, curve=label)
                )
                n += 1
        return n

    def record_wall_clock(self, bench: str, seconds: Sequence[float]) -> None:
        """All reps of one wall-clock micro-benchmark (median + IQR)."""
        secs = [float(s) for s in seconds]
        if not secs:
            raise BenchError(f"no wall-clock samples for {bench!r}")
        if len(secs) >= 2:
            p25, _p50, p75 = statistics.quantiles(secs, n=4, method="inclusive")
        else:
            p25 = p75 = secs[0]
        self._wall[bench] = {
            "reps": len(secs),
            "median": statistics.median(secs),
            "min": min(secs),
            "max": max(secs),
            "p25": p25,
            "p75": p75,
            "iqr": p75 - p25,
            "all": secs,
        }

    def record_metrics(self, registry_or_snapshot) -> None:
        """Attach the explanatory metrics snapshot (replaces previous)."""
        snap = registry_or_snapshot
        if hasattr(snap, "snapshot"):
            snap = snap.snapshot()
        self._metrics = dict(snap)

    # -- finish --------------------------------------------------------------
    def finish(self) -> BenchRecord:
        sha, dirty = git_revision(os.path.dirname(os.path.abspath(__file__)))
        return BenchRecord(
            name=self.name,
            created_unix=time.time(),
            git_sha=sha,
            git_dirty=dirty,
            python=sys.version.split()[0],
            platform_info=_platform_mod.platform(),
            spec=self._spec.to_dict(),
            spec_sha256=platform_hash(self._spec),
            points=list(self._points),
            wall_clock_s=dict(self._wall),
            metrics=dict(self._metrics),
            run_id=self.run_id,
            backend=self.backend,
        )

    def write(self, path: str) -> str:
        return self.finish().write(path)

    def __len__(self) -> int:
        return len(self._points)


# --------------------------------------------------------------------- #
# canonical suites (used by `repro bench run` and the CI gate)
# --------------------------------------------------------------------- #
def metrics_probe(spec=None) -> dict[str, Any]:
    """Merged metrics snapshot of a canonical 2-rail probe workload.

    Small aggregated ping-pong (exercises the Fig 6 idle-poll tax and the
    optimization window), a large greedy ping-pong (wrapper sizes, DMA)
    and a greedy flood (real backlogs).  Deterministic, so the snapshot
    is stable across runs of the same code.
    """
    from ..bench.flood import run_flood
    from ..bench.pingpong import run_pingpong
    from ..core.session import Session
    from ..hardware.presets import paper_platform
    from ..util.units import MB
    from .metrics import MetricsRegistry

    spec = spec if spec is not None else paper_platform()
    merged = MetricsRegistry()
    s1 = Session(spec, strategy="aggreg_multirail")
    run_pingpong(s1, 64, segments=4, reps=5, warmup=1)
    merged.merge_inplace(s1.metrics)
    s2 = Session(spec, strategy="greedy")
    run_pingpong(s2, 1 * MB, segments=2, reps=2, warmup=1)
    merged.merge_inplace(s2.metrics)
    s3 = Session(spec, strategy="greedy")
    run_flood(s3, 64 * 1024, count=32, window=8)
    merged.merge_inplace(s3.metrics)
    return merged.snapshot()


def _wall_engine_events() -> int:
    from ..sim.engine import Simulator

    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 10_000:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run_until_idle()
    return count[0]


def _wall_engine_events_100k() -> int:
    """100k-event mixed kernel workload: spread timers plus cancellation
    churn, far more resident events (peak ~100k) than any recorded
    workload keeps (peak 3 071 at P=1024).  Deterministic (seeded
    Mersenne Twister, stable across CPython versions), so both backends
    execute the identical event sequence."""
    import random

    from ..sim.engine import Simulator

    sim = Simulator()
    rng = random.Random(20260807)
    count = [0]
    pending: list = []

    def tick():
        count[0] += 1
        if count[0] < 100_000:
            pending.append(sim.schedule(rng.random() * 200.0, tick))
            if count[0] % 3 == 0:
                pending.append(sim.schedule(rng.random() * 200.0, tick))
            if len(pending) > 64:
                pending.pop(rng.randrange(len(pending))).cancel()

    for _ in range(512):
        sim.schedule(rng.random() * 200.0, tick)
    sim.run_until_idle(max_events=400_000)
    return count[0]


def _flow_reallocation(n_flows: int) -> int:
    from ..sim.engine import Simulator
    from ..sim.flows import FlowNetwork, Link

    sim = Simulator()
    net = FlowNetwork(sim)
    bus = Link("bus", 1000.0)
    rails = [Link(f"r{i}", 400.0) for i in range(8)]
    for i in range(n_flows):
        net.start_flow([bus, rails[i % 8]], size=10_000.0 + i)
    sim.run_until_idle()
    return net.completed_count


def _wall_flow_reallocation() -> int:
    return _flow_reallocation(200)


def _wall_flow_reallocation_1000() -> int:
    return _flow_reallocation(1000)


def _sim_pingpong(strategy: str, size: int, segments: int, reps: int, warmup: int):
    from ..bench.pingpong import run_pingpong
    from ..core.session import Session
    from ..hardware.presets import paper_platform

    session = Session(paper_platform(), strategy=strategy)
    return run_pingpong(session, size, segments=segments, reps=reps, warmup=warmup)


#: the substrate micro-benchmarks: name -> zero-arg callable.  Workloads
#: (and names) mirror ``benchmarks/bench_engine.py`` exactly, so a CLI
#: engine record and a pytest-benchmark record are directly comparable.
ENGINE_BENCHES: dict[str, Callable[[], Any]] = {
    "event_kernel_10k": _wall_engine_events,
    "event_kernel_100k": _wall_engine_events_100k,
    "flow_reallocation_200": _wall_flow_reallocation,
    "flow_reallocation_1000": _wall_flow_reallocation_1000,
    "pingpong_1MB_greedy": lambda: _sim_pingpong("greedy", 1024 * 1024, 2, 2, 1),
    "pingpong_64B_aggreg_multirail": lambda: _sim_pingpong(
        "aggreg_multirail", 64, 4, 10, 2
    ),
}

#: benches whose return value is an executed-event count; the best rep
#: yields the ``engine.events_per_sec`` headline metric.
_EVENT_RATE_BENCH = "event_kernel_100k"


def run_engine_suite(
    recorder: BenchRecorder,
    wall_reps: int = 5,
    publish: Optional[Callable[[str, int, int], None]] = None,
) -> None:
    """Run the substrate micro-benchmarks: wall-clock (noisy, report-only)
    plus the deterministic simulated results of the ping-pong workloads.

    ``publish(bench, done, total)`` fires after each micro-benchmark for
    the live endpoint's incremental snapshots."""
    from ..bench.pingpong import PingPongResult

    if wall_reps < 1:
        raise BenchError(f"wall_reps must be >= 1, got {wall_reps}")
    total = len(ENGINE_BENCHES)
    if publish:
        publish("", 0, total)
    events_per_sec = None
    for done, (bench, fn) in enumerate(ENGINE_BENCHES.items(), start=1):
        secs = []
        result = None
        for _ in range(wall_reps):
            t0 = time.perf_counter()
            result = fn()
            secs.append(time.perf_counter() - t0)
        recorder.record_wall_clock(f"engine.{bench}", secs)
        if bench == _EVENT_RATE_BENCH and isinstance(result, int) and result:
            events_per_sec = result / min(secs)
        if isinstance(result, PingPongResult):
            recorder.record_point(
                pingpong_point(result, bench=f"engine.{bench}")
            )
        if publish:
            publish(bench, done, total)
    snap = metrics_probe()
    if events_per_sec is not None:
        # Headline kernel throughput (best rep of the 100k mixed
        # workload); flows into the compare delta table's metrics rows.
        snap["engine.events_per_sec"] = events_per_sec
    recorder.record_metrics(snap)


def run_figure_suite(
    recorder: BenchRecorder,
    figures: Optional[Sequence[str]] = None,
    reps: int = 2,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    publish: Optional[Callable[[str, int, int], None]] = None,
) -> None:
    """Run paper figures, recording every curve point and per-figure wall
    seconds; attaches the metrics probe if nothing recorded one yet.

    ``jobs`` > 1 fans each figure's points over a worker pool
    (:mod:`repro.obs.runner`); the simulated results — and therefore the
    record's ``points`` section — are bit-identical to a serial run.

    ``publish(figure_id, done, total)`` fires after each figure finishes
    (and once with ``done=0`` before the first), feeding the live
    endpoint's incremental snapshots (:mod:`repro.obs.server`)."""
    from ..bench.figures import FIGURES, run_figure

    ids = list(figures) if figures else sorted(FIGURES)
    unknown = [i for i in ids if i not in FIGURES]
    if unknown:
        raise BenchError(f"unknown figures {unknown}; available: {sorted(FIGURES)}")
    if publish:
        publish("", 0, len(ids))
    for done, figure_id in enumerate(ids, start=1):
        if progress:
            progress(figure_id)
        t0 = time.perf_counter()
        result = run_figure(figure_id, reps=reps, jobs=jobs)
        recorder.record_wall_clock(f"figure.{figure_id}", [time.perf_counter() - t0])
        recorder.record_figure(result)
        if publish:
            publish(figure_id, done, len(ids))
    if not recorder._metrics:
        recorder.record_metrics(metrics_probe())
