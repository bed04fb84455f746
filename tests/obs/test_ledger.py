"""Run ledger: ingestion, run linking, queries, gc, CLI wiring."""

import json

import pytest

from repro.bench.flood import run_flood
from repro.bench.pingpong import run_pingpong
from repro.cli import main
from repro.core.session import Session
from repro.faults.chaos import run_chaos
from repro.faults.plan import random_plan
from repro.hardware.presets import paper_platform
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, Ledger
from repro.obs.log import EVENT_SCHEMA_VERSION, EventLogger
from repro.obs.streaming import STREAM_SCHEMA_VERSION, SpanSampler, write_span_stream
from repro.obs.perf import (
    POINT_KEY_FIELDS,
    BenchRecorder,
    flood_point,
    pingpong_point,
    point_key,
)
from repro.util.errors import BenchError


def _bench_record(run_id=None):
    rec = BenchRecorder("unit", run_id=run_id)
    session = Session(paper_platform(), strategy="greedy")
    pp = run_pingpong(session, 4096, segments=2, reps=1, warmup=1)
    rec.record_point(pingpong_point(pp, bench="unit.pp", curve="greedy"))
    return rec.finish()


def _span_stream(path):
    """A traced 2-node ping-pong's spans, written as a span stream."""
    session = Session(paper_platform(), trace=True)
    run_pingpong(session, 4096, reps=1, warmup=0)
    write_span_stream(path, session.spans.spans, SpanSampler())
    return path


@pytest.fixture()
def ledger(tmp_path):
    with Ledger(str(tmp_path / "ledger.db")) as led:
        yield led


@pytest.fixture(autouse=True)
def restore_global_logger():
    """main() reconfigures the global logger; put the default back."""
    from repro.obs.log import configure

    yield
    configure(level="info")


class TestIngest:
    def test_bench_record_points(self, ledger):
        record = _bench_record(run_id="r-bench")
        rid = ledger.ingest_bench_record(record)
        assert rid == "r-bench"
        (run,) = ledger.runs()
        assert run["kind"] == "bench" and run["git_sha"] == record.git_sha
        assert run["n_points"] == 1
        detail = ledger.show(rid)
        point = detail["points"][0]
        assert point["bench"] == "unit.pp" and point["curve"] == "greedy"
        assert point["values"]["one_way_us"] > 0

    def test_points_keep_their_identity(self, ledger):
        """Two floods that differ only in their window are two points."""
        rec = BenchRecorder("unit")
        for window in (1, 8):
            session = Session(paper_platform(), strategy="greedy")
            result = run_flood(session, 64 * 1024, count=4, window=window)
            rec.record_point(flood_point(result, bench="unit.flood", strategy="greedy"))
        record = rec.finish()
        points = ledger.show(ledger.ingest_bench_record(record))["points"]
        stored = [tuple(p[name] for name, _ in POINT_KEY_FIELDS) for p in points]
        assert stored == [point_key(p) for p in record.points]
        assert len(set(stored)) == 2

    def test_a_saved_fault_plan_ingests_as_an_artifact(self, ledger, tmp_path):
        path = random_plan(3, paper_platform()).save(str(tmp_path / "plan.json"))
        (rid,) = ledger.ingest_path(path)
        assert ledger.show(rid)["artifacts"] == [{"kind": "fault_plan", "path": path}]

    def test_a_span_stream_ingests_as_an_artifact(self, ledger, tmp_path):
        path = _span_stream(str(tmp_path / "spans.jsonl"))
        (rid,) = ledger.ingest_path(path)
        assert ledger.show(rid)["artifacts"] == [{"kind": "span_stream", "path": path}]
        ledger.ingest_bench_record(_bench_record(run_id="r-trace"))
        assert ledger.ingest_path(path, run_id="r-trace") == ["r-trace"]
        detail = ledger.show("r-trace")
        assert detail["kind"] == "bench" and len(detail["points"]) == 1
        assert detail["artifacts"] == [{"kind": "span_stream", "path": path}]

    @pytest.mark.parametrize(
        "kind", ["bench", "chaos", "fault_plan", "events", "span_stream"]
    )
    def test_ingest_path_parses_each_file_once(self, ledger, tmp_path, monkeypatch, kind):
        """Parent: twice for a bench record, a chaos report or a fault plan
        (once to learn its kind, once more by the kind's own loader)."""
        import repro.faults.plan
        import repro.obs.log
        import repro.obs.perf
        import repro.obs.streaming
        from repro.obs import ledger as ledger_module
        from repro.util.config import read_json_objects

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return read_json_objects(*args, **kwargs)

        for module in (
            ledger_module, repro.obs.perf, repro.faults.plan, repro.obs.log,
            repro.obs.streaming,
        ):
            monkeypatch.setattr(module, "read_json_objects", counting)
        path = str(tmp_path / f"{kind}.json")
        if kind == "bench":
            _bench_record(run_id="r1").write(path)
        elif kind == "chaos":
            report = run_chaos(seeds=1, strategies="greedy", messages=2)
            with open(path, "w") as fh:
                json.dump(report.to_dict(), fh)
        elif kind == "fault_plan":
            random_plan(3, paper_platform()).save(path)
        elif kind == "span_stream":
            _span_stream(path)
        else:
            log = EventLogger(level="info", path=path, run_id="r2")
            log.info("x")
            log.close()
        (rid,) = ledger.ingest_path(path)
        assert calls == [path] and ledger.show(rid)

    def test_reingest_replaces_not_duplicates(self, ledger):
        record = _bench_record(run_id="r-bench")
        ledger.ingest_bench_record(record)
        ledger.ingest_bench_record(record)
        (run,) = ledger.runs()
        assert run["n_points"] == 1

    def test_chaos_report_cases(self, ledger):
        report = run_chaos(seeds=2, strategies="greedy", messages=2)
        rid = ledger.ingest_chaos_report(report, run_id="r-chaos")
        detail = ledger.show(rid)
        assert len(detail["chaos_cases"]) == 2
        assert {c["strategy"] for c in detail["chaos_cases"]} == {"greedy"}
        assert all(c["events_executed"] > 0 for c in detail["chaos_cases"])
        # the replayable plan is stored per case
        (plan,) = ledger._db.execute(
            "SELECT plan_json FROM chaos_cases WHERE run_id = ? AND seed = 0", (rid,)
        ).fetchone()
        assert json.loads(plan)["events"]

    def test_events_grouped_by_run_id(self, ledger, tmp_path):
        path = str(tmp_path / "e.jsonl")
        log = EventLogger(level="debug", path=path, run_id="r-ev")
        log.info("run.start")
        log.bind(case_id="greedy/seed1").warn("chaos.case.fail", violations=1)
        log.close()
        assert ledger.ingest_events(path) == ["r-ev"]
        detail = ledger.show("r-ev")
        assert [e["event"] for e in detail["events"]] == [
            "run.start", "chaos.case.fail",
        ]
        assert detail["events"][1]["case_id"] == "greedy/seed1"
        assert detail["events"][1]["fields"]["violations"] == 1

    def test_events_without_run_id_need_fallback(self, ledger, tmp_path):
        path = str(tmp_path / "e.jsonl")
        log = EventLogger(level="info", path=path)
        log.info("orphan")
        log.close()
        with pytest.raises(BenchError, match="run_id"):
            ledger.ingest_events(path)
        assert ledger.ingest_events(path, run_id="adopted") == ["adopted"]

    def test_kinds_merge_into_one_linked_run(self, ledger, tmp_path):
        """The acceptance shape: bench + chaos + events share one run_id."""
        rid = "r-shared"
        ledger.ingest_bench_record(_bench_record(run_id=rid))
        ledger.ingest_chaos_report(
            run_chaos(seeds=1, strategies="greedy", messages=2), run_id=rid
        )
        path = str(tmp_path / "e.jsonl")
        log = EventLogger(level="info", path=path, run_id=rid)
        log.info("run.done")
        log.close()
        ledger.ingest_events(path)
        ledger.add_artifact(rid, "event_log", path)
        (run,) = ledger.runs()
        assert run["kind"] == "bench+chaos+events"
        assert run["git_sha"]  # linked to the commit
        assert run["n_points"] == 1 and run["n_chaos_cases"] == 1
        assert run["n_events"] == 1 and run["n_artifacts"] == 1

    def test_ingest_path_autodetects(self, ledger, tmp_path):
        bench_path = _bench_record(run_id="r1").write(str(tmp_path / "BENCH_u.json"))
        ev_path = str(tmp_path / "e.jsonl")
        log = EventLogger(level="info", path=ev_path, run_id="r2")
        log.info("x")
        log.close()
        assert ledger.ingest_path(bench_path) == ["r1"]
        assert ledger.ingest_path(ev_path) == ["r2"]
        with pytest.raises(BenchError, match="not a"):
            other = tmp_path / "other.json"
            other.write_text('{"hello": 1}')
            ledger.ingest_path(str(other))


class TestQueries:
    def test_sha_prefix_and_kind_filters(self, ledger):
        record = _bench_record(run_id="r1")
        ledger.ingest_bench_record(record)
        assert record.git_sha is not None
        assert ledger.runs(sha=record.git_sha[:8])
        assert ledger.runs(kind="bench") and not ledger.runs(kind="chaos")
        assert not ledger.runs(sha="ffffffff")

    def test_show_unknown_run_raises(self, ledger):
        with pytest.raises(BenchError, match="no run"):
            ledger.show("nope")

    def test_gc_keeps_newest(self, ledger):
        for i in range(4):
            ledger._upsert_run(f"r{i}", "events", created_unix=float(i))
        doomed = ledger.gc(keep=2)
        assert sorted(doomed) == ["r0", "r1"]
        assert {r["run_id"] for r in ledger.runs()} == {"r2", "r3"}

    def test_schema_version_guard(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        with Ledger(path) as led:
            led._db.execute(
                "UPDATE ledger_meta SET value = ? WHERE key = 'schema_version'",
                (str(LEDGER_SCHEMA_VERSION + 1),),
            )
            led._db.commit()
        with pytest.raises(BenchError, match="schema"):
            Ledger(path)


class TestCli:
    def test_ingest_query_show_gc(self, tmp_path, capsys):
        db = str(tmp_path / "ledger.db")
        record = _bench_record(run_id="r-cli")
        bench_path = record.write(str(tmp_path / "BENCH_cli.json"))
        assert main(["ledger", "--db", db, "ingest", bench_path]) == 0
        assert main(["ledger", "--db", db, "query", "--sha", "HEAD"]) == 0
        out = capsys.readouterr().out
        assert "r-cli" in out and "points=1" in out
        assert main(["ledger", "--db", db, "show", "r-cli"]) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["run_id"] == "r-cli" and len(detail["points"]) == 1
        assert main(["ledger", "--db", db, "gc", "--keep", "0"]) == 0
        assert main(["ledger", "--db", db, "query"]) == 1  # empty now

    def test_query_json_and_unknown_sha(self, tmp_path, capsys):
        db = str(tmp_path / "ledger.db")
        bench_path = _bench_record(run_id="rj").write(str(tmp_path / "B.json"))
        main(["ledger", "--db", db, "ingest", bench_path])
        capsys.readouterr()
        assert main(["ledger", "--db", db, "query", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["run_id"] == "rj"
        assert main(["ledger", "--db", db, "query", "--sha", "ffffffff"]) == 1

    def test_chaos_ledger_flag_links_run(self, tmp_path, capsys):
        db = str(tmp_path / "ledger.db")
        ev = str(tmp_path / "e.jsonl")
        rc = main([
            "--log-file", ev, "chaos", "--seeds", "1", "--strategies", "greedy",
            "--messages", "2", "--ledger", db,
        ])
        assert rc == 0
        capsys.readouterr()
        with Ledger(db) as led:
            (run,) = led.runs()
            assert "chaos" in run["kind"] and "events" in run["kind"]
            assert run["n_chaos_cases"] == 1 and run["n_events"] > 0
            assert any(a["kind"] == "event_log" for a in led.show(run["run_id"])["artifacts"])

    def test_the_stream_analyze_writes_is_a_ledger_artifact(self, tmp_path, capsys):
        """The parent parsed the stream as one JSON document: exit 2,
        ``invalid JSON: Extra data``."""
        db, stream = str(tmp_path / "ledger.db"), str(tmp_path / "spans.jsonl")
        assert main(["analyze", "fig6", "--stream", stream]) == 0
        capsys.readouterr()
        assert main(["ledger", "--db", db, "ingest", stream]) == 0
        rid = capsys.readouterr().out.split()[-1]
        assert main(["ledger", "--db", db, "show", rid]) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["artifacts"] == [{"kind": "span_stream", "path": stream}]

    def test_event_log_schema_line_is_ingestable(self, tmp_path):
        """The --log-file JSONL written by the CLI is schema-stamped."""
        ev = str(tmp_path / "e.jsonl")
        main([
            "--log-file", ev, "chaos", "--seeds", "1", "--strategies", "greedy",
            "--messages", "2",
        ])
        first = json.loads(open(ev).readline())
        assert first["v"] == EVENT_SCHEMA_VERSION
        assert first["run_id"]


_STREAM_HEADER = json.dumps({"schema": STREAM_SCHEMA_VERSION, "sampler": {}}) + "\n"

#: hand-written files that were tracebacks: (name, content, what the one line says)
_HOSTILE = [
    (
        "bad_line.jsonl",
        json.dumps({"v": EVENT_SCHEMA_VERSION, "ts": 1.0, "level": "info",
                    "event": "x", "run_id": "r"}) + "\n{oops\n",
        "bad_line.jsonl:2: invalid JSON",
    ),
    ("schema3.json", '{"schema": 3, "events": []}', "schema3.json: not a bench record"),
    ("cases_str.json", '{"cases": "zzz"}', "cases_str.json: 'cases' must be a list"),
    ("cases_int.json", '{"cases": [1]}', "cases_int.json: 'cases' must be a list"),
    ("plan.json", '{"events": [{"kind": "down"}]}', "plan.json: malformed fault plan"),
    (
        "cut.jsonl",
        _STREAM_HEADER + '{"cat": "api", "name": "submit", "node": 0, "si',
        "cut.jsonl:2: invalid JSON",
    ),
    (
        "sids.jsonl",
        _STREAM_HEADER + "".join(
            json.dumps({"cat": "api", "name": "x", "node": 0, "sid": sid,
                        "t0": 0.0, "t1": 1.0, "track": "pump"}) + "\n"
            for sid in (1, "0")
        ),
        "sids.jsonl:3: span sid '0' is not an int",
    ),
]


class TestHostileInputs:
    """Every ledger ingress answers in one line: exit 2, the file named."""

    @pytest.mark.parametrize("name,content,says", _HOSTILE, ids=[h[0] for h in _HOSTILE])
    def test_ingest_of_a_malformed_file_is_one_line(self, tmp_path, capsys, name, content, says):
        path = tmp_path / name
        path.write_text(content)
        assert main(["ledger", "--db", str(tmp_path / "l.db"), "ingest", str(path)]) == 2
        err = capsys.readouterr().err
        assert says in err and "Traceback" not in err and len(err.splitlines()) == 1

    def test_a_db_that_is_not_sqlite_is_one_line(self, tmp_path, capsys):
        db = tmp_path / "notes.db"
        db.write_text("definitely not a SQLite file, and long enough to have a header\n" * 4)
        assert main(["ledger", "--db", str(db), "query"]) == 2
        err = capsys.readouterr().err
        assert "notes.db: not a ledger database" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [["query"], ["show", "r1"], ["gc"]])
    def test_reading_a_missing_db_creates_nothing(self, tmp_path, capsys, command):
        """``query``/``show``/``gc`` used to make the directory and an empty
        ledger they were asked to read, then answer from it."""
        db = tmp_path / "absent" / "x.db"
        assert main(["ledger", "--db", str(db), *command]) == 2
        err = capsys.readouterr().err
        assert "x.db: no ledger there" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not db.parent.exists()

    def test_a_chaos_report_that_is_not_json_names_the_file(self, ledger, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        with pytest.raises(BenchError, match="report.json: invalid JSON"):
            ledger.ingest_chaos_report(str(path))
