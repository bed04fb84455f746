"""Benchmark run registry: self-describing ``BENCH_<name>.json`` records.

PR 1 gave single runs rich telemetry; this module makes runs *comparable
across time*.  A :class:`BenchRecorder` collects

* **points** — per-(benchmark, curve, size) simulated results
  (one-way latency, bandwidth).  The simulation is deterministic, so two
  runs of the same code must agree bit-for-bit; any drift is a real
  behavioural change and :mod:`repro.obs.compare` gates on it;
* **a metrics snapshot** — the PR 1 registry counters (idle-poll tax,
  wrapper sizes, optimization-window depth) from a canonical probe
  workload, so a perf number always travels with the counters that
  explain it;
* **provenance** — git SHA (+dirty flag), python/platform strings, the
  full :class:`~repro.hardware.spec.PlatformSpec` and its SHA-256, and
  the record schema version.

Records are plain JSON (:meth:`BenchRecord.to_dict` /
:meth:`BenchRecord.from_dict`); committed baselines live under
``bench_results/baselines/``.  A record holds no host time: wall clock
belongs to ``hostbench/`` (``python3 -m hostbench run``), which measures
it from outside with its own probes.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import platform as _platform_mod
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..util.config import read_json_objects
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


#: a point's identity fields and their defaults, in key order — what
#: :func:`point_key` matches on and the ledger's ``points`` columns.
POINT_KEY_FIELDS = (
    ("kind", "?"),
    ("bench", "?"),
    ("curve", ""),
    ("strategy", ""),
    ("size", 0),
    ("segments", 1),
    ("count", 0),
    ("window", 0),
)


def point_key(point: Mapping[str, Any]) -> tuple:
    """Identity of a point for cross-run matching (not its values)."""
    return tuple(point.get(name, default) for name, default in POINT_KEY_FIELDS)


#: point fields that are deterministic simulated results (gateable).
SIM_FIELDS = (
    "one_way_us",
    "bandwidth_MBps",
    "elapsed_us",
    "throughput_MBps",
    "message_rate_per_ms",
)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
            "metrics": self.metrics,
        }
        if self.run_id is not None:
            d["run_id"] = self.run_id
        if self.backend is not None:
            d["backend"] = self.backend
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        """Build a record from parsed JSON, rejecting a malformed shape
        with a one-line :class:`BenchError` naming the field.  Unknown
        keys (older records carry some) are ignored."""
        if not isinstance(data, Mapping):
            raise BenchError(
                f"bench record must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise BenchError(
                f"unsupported bench record schema {schema!r} (want {SCHEMA_VERSION!r})"
            )
        created = data.get("created_unix", 0.0)
        if not _is_number(created):
            raise BenchError(f"field 'created_unix' must be a number, got {created!r}")
        for name in ("spec", "metrics"):
            if not isinstance(data.get(name, {}), Mapping):
                raise BenchError(f"field {name!r} must be an object")
        points = data.get("points", [])
        if not isinstance(points, list):
            raise BenchError("field 'points' must be a list")
        for i, point in enumerate(points):
            if not isinstance(point, Mapping):
                raise BenchError(f"field 'points[{i}]' must be an object, got {point!r}")
            for fname in SIM_FIELDS:
                if fname in point and not _is_number(point[fname]):
                    raise BenchError(
                        f"field 'points[{i}].{fname}' must be a number,"
                        f" got {point[fname]!r}"
                    )
        return cls(
            name=data.get("name", "?"),
            created_unix=float(created),
            git_sha=data.get("git_sha"),
            git_dirty=bool(data.get("git_dirty", False)),
            python=data.get("python", "?"),
            platform_info=data.get("platform_info", "?"),
            spec=copy.deepcopy(dict(data.get("spec", {}))),
            spec_sha256=data.get("spec_sha256", ""),
            points=copy.deepcopy(points),
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


def load_record(path: str, data: Optional[Mapping[str, Any]] = None) -> BenchRecord:
    """Load a ``BENCH_*.json`` record from disk (``data``: the document
    already parsed from ``path``)."""
    if data is None:
        ((_, data),) = read_json_objects(path, BenchError)
    try:
        return BenchRecord.from_dict(data)
    except BenchError as exc:
        raise BenchError(f"{path}: {exc}") from None


class BenchRecorder:
    """Accumulates one run's points / metrics into a record.

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

    def record_metrics(self, registry_or_snapshot) -> None:
        """Attach explanatory metrics (merged into those already attached)."""
        snap = registry_or_snapshot
        if hasattr(snap, "snapshot"):
            snap = snap.snapshot()
        self._metrics.update(snap)

    @property
    def metrics(self) -> dict[str, Any]:
        """A copy of the metrics attached so far."""
        return dict(self._metrics)

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
            metrics=dict(self._metrics),
            run_id=self.run_id,
            backend=self.backend,
        )

    def write(self, path: str) -> str:
        return self.finish().write(path)

    def __len__(self) -> int:
        return len(self._points)


# --------------------------------------------------------------------- #
# the canonical metrics probe (`repro metrics`, and every record that
# holds engine or figure points)
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
