"""Run ledger: one queryable SQLite record of everything that ran.

Bench runs scatter ``BENCH_*.json`` files, chaos sweeps scatter failing
``FaultPlan`` artifacts, and the event log is an append-only JSONL
stream — three artifact families with no join key.  The ledger ingests
all of them into linked tables keyed by ``run_id`` (the event-log
correlation id) and git SHA, so one query answers "what did commit X
run, with what results, and where are the artifacts":

* ``runs`` — one row per ingested run: kind (``bench``/``chaos``/
  ``events``), name, git SHA + dirty flag, platform-spec hash,
  provenance strings;
* ``points`` — every figure/engine point of a bench record (simulated
  quantities as JSON, identity columns split out for SQL filtering);
* ``chaos_cases`` — per (strategy, seed) verdicts, violations and the
  replayable fault plan JSON;
* ``events`` — the structured event log (:mod:`repro.obs.log`), one row
  per line, correlation ids split out;
* ``artifacts`` — paths of loose files tied to a run (failing plans,
  trace streams, Chrome traces).

``repro ledger ingest|query|show|gc`` is the CLI; ``repro bench run
--ledger`` and ``repro chaos --ledger`` ingest inline so CI needs no
extra step.  Everything is stdlib ``sqlite3`` — no new dependencies.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from ..util.config import read_json_objects
from ..util.errors import BenchError, ConfigError
from .log import EVENT_SCHEMA_VERSION, new_run_id, parse_events
from .perf import POINT_KEY_FIELDS, SIM_FIELDS, load_record, point_key
from .spans import SpanError
from .streaming import STREAM_SCHEMA_VERSION, load_span_stream

__all__ = ["LEDGER_SCHEMA_VERSION", "Ledger", "DEFAULT_LEDGER_PATH"]

#: bump when the table layout changes incompatibly.
LEDGER_SCHEMA_VERSION = 3

#: where the CLI looks when ``--db`` is not given.
DEFAULT_LEDGER_PATH = os.path.join("bench_results", "ledger.db")

#: a point's identity columns: the fields of :func:`~.perf.point_key`.
_POINT_COLUMNS = tuple(name for name, _ in POINT_KEY_FIELDS)

_TABLES = """
CREATE TABLE IF NOT EXISTS ledger_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id       TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    name         TEXT,
    git_sha      TEXT,
    git_dirty    INTEGER NOT NULL DEFAULT 0,
    spec_sha256  TEXT,
    created_unix REAL,
    ingested_unix REAL NOT NULL,
    python       TEXT,
    platform     TEXT,
    meta_json    TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS runs_git_sha ON runs (git_sha);
CREATE TABLE IF NOT EXISTS points (
    run_id    TEXT NOT NULL,
    point_id  INTEGER NOT NULL,
    %s,
    values_json TEXT NOT NULL,
    PRIMARY KEY (run_id, point_id)
);
CREATE TABLE IF NOT EXISTS chaos_cases (
    run_id    TEXT NOT NULL,
    case_id   INTEGER NOT NULL,
    strategy  TEXT,
    seed      INTEGER,
    ok        INTEGER NOT NULL,
    violations_json TEXT NOT NULL DEFAULT '[]',
    plan_json TEXT,
    final_time_us REAL,
    events_executed INTEGER,
    PRIMARY KEY (run_id, case_id)
);
CREATE TABLE IF NOT EXISTS events (
    run_id   TEXT NOT NULL,
    seq      INTEGER NOT NULL,
    ts       REAL,
    level    TEXT,
    event    TEXT,
    point_id TEXT,
    case_id  TEXT,
    worker_id TEXT,
    fields_json TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, seq)
);
CREATE TABLE IF NOT EXISTS artifacts (
    run_id TEXT NOT NULL,
    kind   TEXT NOT NULL,
    path   TEXT NOT NULL,
    PRIMARY KEY (run_id, kind, path)
);
""" % ",\n    ".join(
    f"{name} {'TEXT' if isinstance(default, str) else 'INTEGER'}"
    for name, default in POINT_KEY_FIELDS
)

#: event fields split into their own columns (the rest goes to JSON).
_EVENT_COLUMNS = ("v", "ts", "level", "event", "run_id", "point_id", "case_id", "pid")


class Ledger:
    """A SQLite-backed store of runs, points, cases, events, artifacts."""

    def __init__(self, path: str = DEFAULT_LEDGER_PATH) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._db = sqlite3.connect(path)
        self._db.row_factory = sqlite3.Row
        try:
            self._db.executescript(_TABLES)
            row = self._db.execute(
                "SELECT value FROM ledger_meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            self._db.close()
            raise BenchError(f"{path}: not a ledger database: {exc}") from None
        if row is None:
            self._db.execute(
                "INSERT INTO ledger_meta (key, value) VALUES (?, ?)",
                ("schema_version", str(LEDGER_SCHEMA_VERSION)),
            )
            self._db.commit()
        elif int(row["value"]) != LEDGER_SCHEMA_VERSION:
            raise BenchError(
                f"{path}: ledger schema {row['value']} unsupported"
                f" (want {LEDGER_SCHEMA_VERSION})"
            )

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- ingest --------------------------------------------------------------
    def _upsert_run(
        self,
        run_id: str,
        kind: str,
        name: Optional[str] = None,
        git_sha: Optional[str] = None,
        git_dirty: bool = False,
        spec_sha256: Optional[str] = None,
        created_unix: Optional[float] = None,
        python: Optional[str] = None,
        platform: Optional[str] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Insert the run row, or enrich the existing one in place.

        A run ingested first from its event log and later from its bench
        record must end up as *one* row, so non-null new values win and
        kinds merge (``bench+chaos`` when one invocation did both).
        """
        row = self._db.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            self._db.execute(
                "INSERT INTO runs (run_id, kind, name, git_sha, git_dirty,"
                " spec_sha256, created_unix, ingested_unix, python, platform,"
                " meta_json) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id, kind, name, git_sha, int(git_dirty), spec_sha256,
                    created_unix, time.time(), python, platform,
                    json.dumps(dict(meta or {}), sort_keys=True),
                ),
            )
        else:
            kinds = set(row["kind"].split("+")) | {kind}
            merged_meta = json.loads(row["meta_json"])
            merged_meta.update(meta or {})
            self._db.execute(
                "UPDATE runs SET kind = ?, name = COALESCE(?, name),"
                " git_sha = COALESCE(?, git_sha),"
                " git_dirty = MAX(git_dirty, ?),"
                " spec_sha256 = COALESCE(?, spec_sha256),"
                " created_unix = COALESCE(?, created_unix),"
                " python = COALESCE(?, python),"
                " platform = COALESCE(?, platform),"
                " meta_json = ? WHERE run_id = ?",
                (
                    "+".join(sorted(kinds)), name, git_sha, int(git_dirty),
                    spec_sha256, created_unix, python, platform,
                    json.dumps(merged_meta, sort_keys=True), run_id,
                ),
            )
        self._db.commit()

    def ingest_bench_record(self, record, run_id: Optional[str] = None) -> str:
        """Ingest a :class:`~repro.obs.perf.BenchRecord` (or its path)."""
        if isinstance(record, str):
            record = load_record(record)
        run_id = run_id or getattr(record, "run_id", None) or new_run_id()
        self._upsert_run(
            run_id,
            "bench",
            name=record.name,
            git_sha=record.git_sha,
            git_dirty=record.git_dirty,
            spec_sha256=record.spec_sha256,
            created_unix=record.created_unix,
            python=record.python,
            platform=record.platform_info,
        )
        self._db.execute("DELETE FROM points WHERE run_id = ?", (run_id,))
        insert = (
            f"INSERT INTO points (run_id, point_id, {', '.join(_POINT_COLUMNS)},"
            f" values_json) VALUES ({', '.join('?' * (len(_POINT_COLUMNS) + 3))})"
        )
        for i, point in enumerate(record.points):
            values = {k: v for k, v in point.items() if k in SIM_FIELDS}
            self._db.execute(
                insert,
                (run_id, i, *point_key(point), json.dumps(values, sort_keys=True)),
            )
        self._db.commit()
        return run_id

    def ingest_chaos_report(
        self,
        report_or_cases: Union[Any, Sequence[Mapping[str, Any]]],
        run_id: Optional[str] = None,
        path: Optional[str] = None,
    ) -> str:
        """Ingest a :class:`~repro.faults.chaos.ChaosReport` (or raw case
        dicts, or a saved report: its JSON path, or its parsed document and
        the ``path`` it was read from)."""
        git_sha, git_dirty = None, False
        if isinstance(report_or_cases, str):
            path = report_or_cases
            ((_, report_or_cases),) = read_json_objects(path, BenchError)
        if isinstance(report_or_cases, Mapping):
            doc = report_or_cases
            cases = doc.get("cases", [])
            if not isinstance(cases, list) or not all(
                isinstance(c, dict) and isinstance(c.get("digest", {}), dict) for c in cases
            ):
                raise BenchError(f"{path}: 'cases' must be a list of case objects")
            run_id = run_id or doc.get("run_id")
            git_sha = doc.get("git_sha")
            git_dirty = bool(doc.get("git_dirty", False))
        else:
            cases = getattr(report_or_cases, "cases", report_or_cases)
            run_id = run_id or getattr(report_or_cases, "run_id", None)
        if git_sha is None:
            from .perf import git_revision

            git_sha, git_dirty = git_revision(os.path.dirname(os.path.abspath(__file__)))
        run_id = run_id or new_run_id()
        self._upsert_run(
            run_id, "chaos", name="chaos", git_sha=git_sha, git_dirty=git_dirty,
            created_unix=time.time(),
            meta={"cases": len(cases)},
        )
        self._db.execute("DELETE FROM chaos_cases WHERE run_id = ?", (run_id,))
        for i, case in enumerate(cases):
            digest = case.get("digest", {})
            self._db.execute(
                "INSERT INTO chaos_cases (run_id, case_id, strategy, seed,"
                " ok, violations_json, plan_json, final_time_us,"
                " events_executed) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id, i, case.get("strategy"), case.get("seed"),
                    int(bool(case.get("ok"))),
                    json.dumps(case.get("violations", [])),
                    json.dumps(case.get("plan")) if case.get("plan") else None,
                    digest.get("final_time_us"), digest.get("events_executed"),
                ),
            )
        self._db.commit()
        return run_id

    def ingest_events(
        self,
        source: Union[str, Iterable[Mapping[str, Any]]],
        run_id: Optional[str] = None,
    ) -> list[str]:
        """Ingest an event-log JSONL file (or parsed records).

        Events carry their own ``run_id``; ``run_id=`` overrides for
        records that lack one.  Returns the run ids touched.
        """
        records = parse_events(source) if isinstance(source, str) else list(source)
        by_run: dict[str, list[Mapping[str, Any]]] = {}
        for record in records:
            rid = record.get("run_id") or run_id
            if rid is None:
                raise BenchError(
                    "event without run_id and no fallback given;"
                    " pass run_id= to ingest_events"
                )
            by_run.setdefault(rid, []).append(record)
        for rid, events in by_run.items():
            self._upsert_run(rid, "events", created_unix=events[0].get("ts"))
            (max_seq,) = self._db.execute(
                "SELECT COALESCE(MAX(seq), -1) FROM events WHERE run_id = ?", (rid,)
            ).fetchone()
            for seq, record in enumerate(events, start=max_seq + 1):
                fields = {
                    k: v for k, v in record.items() if k not in _EVENT_COLUMNS
                }
                self._db.execute(
                    "INSERT INTO events (run_id, seq, ts, level, event,"
                    " point_id, case_id, worker_id, fields_json)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        rid, seq, record.get("ts"), record.get("level"),
                        record.get("event"),
                        _opt_str(record.get("point_id")),
                        _opt_str(record.get("case_id")),
                        _opt_str(record.get("pid")),
                        json.dumps(fields, sort_keys=True, default=str),
                    ),
                )
        self._db.commit()
        return sorted(by_run)

    def add_artifact(self, run_id: str, kind: str, path: str) -> None:
        """Register a loose file (fault plan, trace stream, …) of a run."""
        if not self._run_exists(run_id):
            self._upsert_run(run_id, "events")
        self._db.execute(
            "INSERT OR REPLACE INTO artifacts (run_id, kind, path) VALUES (?, ?, ?)",
            (run_id, kind, path),
        )
        self._db.commit()

    def _add_loose_file(self, run_id: Optional[str], kind: str, path: str) -> str:
        rid = run_id or new_run_id()
        self.add_artifact(rid, kind, path)
        return rid

    def _run_exists(self, run_id: str) -> bool:
        return (
            self._db.execute(
                "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
            is not None
        )

    def ingest_path(self, path: str, run_id: Optional[str] = None) -> list[str]:
        """Auto-detect and ingest one artifact file.

        ``BENCH_*.json`` bench records, chaos report JSON, event-log
        JSONL, span-stream JSONL and fault-plan JSON are recognized by
        content, not name.  A span stream or a fault plan is checked by
        its own reader and kept as an artifact of ``run_id`` (or of a new
        run).
        """
        try:
            with open(path, "rb") as fh:
                first_line = fh.readline(4096)
        except OSError as exc:
            raise BenchError(f"cannot read {path}: {exc}") from None
        if f'"{EVENT_SCHEMA_VERSION}"'.encode() in first_line:
            return self.ingest_events(path, run_id=run_id)
        if f'"{STREAM_SCHEMA_VERSION}"'.encode() in first_line:
            try:
                load_span_stream(path)
            except SpanError as exc:
                raise BenchError(str(exc)) from None
            return [self._add_loose_file(run_id, "span_stream", path)]
        ((_, doc),) = read_json_objects(path, BenchError)
        schema = doc.get("schema")
        if isinstance(schema, str) and schema.startswith("repro.bench_record"):
            return [self.ingest_bench_record(load_record(path, doc), run_id=run_id)]
        if "cases" in doc:
            return [self.ingest_chaos_report(doc, run_id=run_id, path=path)]
        if schema is None and isinstance(doc.get("events"), list):  # FaultPlan.save
            from ..faults.plan import FaultPlan

            try:
                FaultPlan.from_dict(doc)
            except ConfigError as exc:
                raise BenchError(f"{path}: {exc}") from None
            return [self._add_loose_file(run_id, "fault_plan", path)]
        raise BenchError(
            f"{path}: not a bench record, chaos report, fault plan, event log"
            " or span stream"
        )

    # -- queries -------------------------------------------------------------
    def runs(
        self,
        sha: Optional[str] = None,
        run_id: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> list[dict[str, Any]]:
        """Run rows (newest first) with per-table child counts attached.

        ``sha`` matches any git SHA prefix, so short SHAs work.
        """
        where, params = [], []
        if sha:
            where.append("git_sha LIKE ?")
            params.append(sha + "%")
        if run_id:
            where.append("run_id = ?")
            params.append(run_id)
        if kind:
            where.append("kind LIKE ?")
            params.append(f"%{kind}%")
        sql = "SELECT * FROM runs"
        if where:
            sql += " WHERE " + " AND ".join(where)
        sql += " ORDER BY COALESCE(created_unix, ingested_unix) DESC, run_id DESC"
        if limit:
            sql += f" LIMIT {int(limit)}"
        out = []
        for row in self._db.execute(sql, params).fetchall():
            d = dict(row)
            d["meta"] = json.loads(d.pop("meta_json"))
            d["git_dirty"] = bool(d["git_dirty"])
            rid = d["run_id"]
            for table, key in (
                ("points", "n_points"),
                ("chaos_cases", "n_chaos_cases"),
                ("events", "n_events"),
                ("artifacts", "n_artifacts"),
            ):
                (d[key],) = self._db.execute(
                    f"SELECT COUNT(*) FROM {table} WHERE run_id = ?", (rid,)
                ).fetchone()
            (d["n_chaos_failures"],) = self._db.execute(
                "SELECT COUNT(*) FROM chaos_cases WHERE run_id = ? AND ok = 0",
                (rid,),
            ).fetchone()
            out.append(d)
        return out

    def show(self, run_id: str) -> dict[str, Any]:
        """Everything the ledger holds about one run."""
        runs = self.runs(run_id=run_id)
        if not runs:
            raise BenchError(f"no run {run_id!r} in {self.path}")
        d = runs[0]
        d["points"] = [
            {**dict(r), "values": json.loads(r["values_json"])}
            for r in self._db.execute(
                "SELECT * FROM points WHERE run_id = ? ORDER BY point_id", (run_id,)
            ).fetchall()
        ]
        for p in d["points"]:
            p.pop("values_json")
        d["chaos_cases"] = [
            {
                "strategy": r["strategy"], "seed": r["seed"], "ok": bool(r["ok"]),
                "violations": json.loads(r["violations_json"]),
                "final_time_us": r["final_time_us"],
                "events_executed": r["events_executed"],
            }
            for r in self._db.execute(
                "SELECT * FROM chaos_cases WHERE run_id = ? ORDER BY case_id",
                (run_id,),
            ).fetchall()
        ]
        d["events"] = [
            {
                "seq": r["seq"], "ts": r["ts"], "level": r["level"],
                "event": r["event"], "point_id": r["point_id"],
                "case_id": r["case_id"], "worker_id": r["worker_id"],
                "fields": json.loads(r["fields_json"]),
            }
            for r in self._db.execute(
                "SELECT * FROM events WHERE run_id = ? ORDER BY seq", (run_id,)
            ).fetchall()
        ]
        d["artifacts"] = [
            {"kind": r["kind"], "path": r["path"]}
            for r in self._db.execute(
                "SELECT * FROM artifacts WHERE run_id = ? ORDER BY kind, path",
                (run_id,),
            ).fetchall()
        ]
        return d

    # -- maintenance ---------------------------------------------------------
    def gc(self, keep: int) -> list[str]:
        """Drop all but the newest ``keep`` runs (children included)."""
        if keep < 0:
            raise BenchError(f"keep must be >= 0, got {keep}")
        doomed = [
            r["run_id"]
            for r in self._db.execute(
                "SELECT run_id FROM runs ORDER BY"
                " COALESCE(created_unix, ingested_unix) DESC, run_id DESC"
            ).fetchall()[keep:]
        ]
        for rid in doomed:
            for table in ("points", "chaos_cases", "events", "artifacts", "runs"):
                self._db.execute(f"DELETE FROM {table} WHERE run_id = ?", (rid,))
        self._db.commit()
        if doomed:
            self._db.execute("VACUUM")
        return doomed


def _opt_str(value: Any) -> Optional[str]:
    return None if value is None else str(value)
