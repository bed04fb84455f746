"""Structured event log: schema-versioned JSONL lifecycle events.

Every long-running entry point (``repro bench run``, ``repro chaos``,
the sweep runner, the fault injector) emits *events* instead of ad-hoc
prints: one flat JSON object per line with a schema version, a wall
timestamp, a severity level, a dotted event name (``run.start``,
``point.done``, ``chaos.case``, ``fault.inject``, ``failover.retry``,
``engine.compaction``, ``violation`` …) and correlation IDs —
``run_id`` ties everything one invocation produced together,
``point_id``/``case_id`` name the unit of work and ``worker_id`` the
process that ran it — so a figure point can be joined to its worker,
its fault plan and its trace after the fact (the ledger does exactly
that; see :mod:`repro.obs.ledger`).

Two sinks, independently configurable:

* a human *stream* (stderr by default) rendered as text, or as JSONL
  under ``repro --log-json``;
* an optional JSONL *file* (``--log-file`` / ``log_path=``) that is
  always machine-readable — this is what ``repro ledger ingest`` reads.

The module-level logger is process-global (``configure`` /
``get_logger``); ``fork``-started pool workers inherit it, and every
event carries the emitting pid, so parallel sweeps interleave safely
(each line is written atomically under a lock per process).

Events never feed back into the simulation — the sim clock is never
read here — so logging cannot perturb simulated results.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import uuid
from typing import Any, Optional, TextIO

from ..util.config import read_json_objects
from ..util.errors import BenchError

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "LEVELS",
    "EventLogger",
    "configure",
    "get_logger",
    "new_run_id",
    "parse_events",
]

#: bump when the event line layout changes incompatibly.
EVENT_SCHEMA_VERSION = "repro.events/1"

#: severity names, least to most severe (CLI ``--log-level`` choices).
LEVELS = {"debug": 10, "info": 20, "warn": 30, "error": 40}


def new_run_id() -> str:
    """A fresh correlation id: sortable second stamp + random suffix."""
    return f"{int(time.time()):08x}-{uuid.uuid4().hex[:8]}"


#: sentinel stream meaning "whatever ``sys.stderr`` is at emit time" —
#: binding the object at import would keep a stale (possibly closed)
#: stream when test harnesses swap stderr out.
STDERR = object()


class EventLogger:
    """Emits structured events to a text stream and/or a JSONL file."""

    def __init__(
        self,
        level: str = "info",
        json_mode: bool = False,
        stream: Optional[Any] = None,
        path: Optional[str] = None,
        **bound: Any,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}; want one of {sorted(LEVELS)}")
        self.level = level
        self.json_mode = json_mode
        self.stream = stream
        self.path = path
        self._bound = dict(bound)
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = None
        if path is not None:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
            self._fh = open(path, "a")

    # -- plumbing ------------------------------------------------------------
    def enabled_for(self, level: str) -> bool:
        return LEVELS.get(level, 0) >= LEVELS[self.level] and (
            self.stream is not None or self._fh is not None
        )

    def bind(self, **fields: Any) -> "EventLogger":
        """A child logger sharing this one's sinks with extra bound fields."""
        child = object.__new__(EventLogger)
        child.level = self.level
        child.json_mode = self.json_mode
        child.stream = self.stream
        child.path = self.path
        child._bound = {**self._bound, **fields}
        child._lock = self._lock
        child._fh = self._fh
        return child

    @property
    def bound(self) -> dict[str, Any]:
        return dict(self._bound)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- emission ------------------------------------------------------------
    def emit(self, level: str, event: str, **fields: Any) -> None:
        if not self.enabled_for(level):
            return
        record: dict[str, Any] = {
            "v": EVENT_SCHEMA_VERSION,
            "ts": round(time.time(), 6),
            "level": level,
            "event": event,
            "pid": os.getpid(),
        }
        record.update(self._bound)
        record.update(fields)
        stream = sys.stderr if self.stream is STDERR else self.stream
        with self._lock:
            if self._fh is not None:
                self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
                self._fh.flush()
            if stream is not None:
                if self.json_mode:
                    line = json.dumps(record, sort_keys=True, default=str)
                else:
                    line = self._render_text(record)
                print(line, file=stream, flush=True)

    @staticmethod
    def _render_text(record: dict[str, Any]) -> str:
        clock = time.strftime("%H:%M:%S", time.localtime(record["ts"]))
        skip = {"v", "ts", "level", "event", "pid"}
        kv = " ".join(
            f"{k}={record[k]}" for k in sorted(record) if k not in skip
        )
        head = f"{clock} {record['level']:<5} {record['event']}"
        return f"{head} {kv}" if kv else head

    def debug(self, event: str, **fields: Any) -> None:
        self.emit("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.emit("info", event, **fields)

    def warn(self, event: str, **fields: Any) -> None:
        self.emit("warn", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.emit("error", event, **fields)


#: the process-global logger; ``configure`` replaces it.
_LOGGER = EventLogger(level="info", stream=STDERR)


def configure(
    level: str = "info",
    json_mode: bool = False,
    stream: Optional[TextIO] = None,
    path: Optional[str] = None,
    quiet: bool = False,
    **bound: Any,
) -> EventLogger:
    """Install the process-global logger (CLI entry points call this).

    ``quiet=True`` drops the text stream entirely (file sink only);
    otherwise ``stream`` defaults to the *current* stderr at each emit.
    """
    global _LOGGER
    _LOGGER.close()
    _LOGGER = EventLogger(
        level=level,
        json_mode=json_mode,
        stream=None if quiet else (stream if stream is not None else STDERR),
        path=path,
        **bound,
    )
    return _LOGGER


def get_logger(**bound: Any) -> EventLogger:
    """The global logger, optionally with extra bound fields."""
    return _LOGGER.bind(**bound) if bound else _LOGGER


def parse_events(path: str) -> list[dict[str, Any]]:
    """Read an event-log JSONL file back into dicts (schema-checked)."""
    out: list[dict[str, Any]] = []
    for where, record in read_json_objects(path, BenchError, lines=True):
        v = record.get("v")
        if v != EVENT_SCHEMA_VERSION:
            raise BenchError(
                f"{where}: unsupported event schema {v!r}"
                f" (want {EVENT_SCHEMA_VERSION!r})"
            )
        out.append(record)
    return out
