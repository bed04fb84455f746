"""Structured event log: schema, sinks, levels, correlation binding."""

import io
import json

import pytest

from repro.util.errors import BenchError

from repro.obs import log as obs_log
from repro.obs.log import (
    EVENT_SCHEMA_VERSION,
    EventLogger,
    configure,
    get_logger,
    new_run_id,
    parse_events,
)


@pytest.fixture(autouse=True)
def restore_global_logger():
    yield
    configure(level="info")


class TestEmission:
    def test_file_sink_round_trips_through_parse_events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLogger(level="debug", path=path)
        log.info("run.start", record="unit", suites=["engine"])
        log.debug("point.done", one_way_us=3.25)
        log.close()
        events = parse_events(path)
        assert [e["event"] for e in events] == ["run.start", "point.done"]
        for e in events:
            assert e["v"] == EVENT_SCHEMA_VERSION
            assert isinstance(e["ts"], float) and isinstance(e["pid"], int)
        assert events[0]["suites"] == ["engine"]
        assert events[1]["one_way_us"] == 3.25

    def test_level_floor_filters(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLogger(level="warn", path=path)
        assert not log.enabled_for("debug") and not log.enabled_for("info")
        log.info("dropped")
        log.warn("kept.warn")
        log.error("kept.error")
        log.close()
        assert [e["level"] for e in parse_events(path)] == ["warn", "error"]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            EventLogger(level="verbose")

    def test_stream_text_render(self):
        buf = io.StringIO()
        EventLogger(level="info", stream=buf).info("sweep.done", points=42)
        line = buf.getvalue().strip()
        assert "sweep.done" in line and "points=42" in line
        assert not line.startswith("{")

    def test_stream_json_render(self):
        buf = io.StringIO()
        EventLogger(level="info", stream=buf, json_mode=True).info("x", a=1)
        record = json.loads(buf.getvalue())
        assert record["event"] == "x" and record["a"] == 1
        assert record["v"] == EVENT_SCHEMA_VERSION

    def test_no_sinks_means_disabled(self):
        log = EventLogger(level="debug")
        assert not log.enabled_for("error")
        log.error("goes nowhere")  # must not raise


class TestBinding:
    def test_bound_fields_appear_on_every_event(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        rid = new_run_id()
        log = EventLogger(level="info", path=path, run_id=rid)
        log.info("a")
        log.bind(case_id="greedy/seed0").info("b")
        log.close()
        a, b = parse_events(path)
        assert a["run_id"] == rid and b["run_id"] == rid
        assert "case_id" not in a and b["case_id"] == "greedy/seed0"

    def test_bind_shares_sink_and_reports_bound(self, tmp_path):
        log = EventLogger(level="info", path=str(tmp_path / "e.jsonl"), run_id="r1")
        child = log.bind(point_id="fig6/x/4")
        assert child.bound == {"run_id": "r1", "point_id": "fig6/x/4"}
        assert child._fh is log._fh
        log.close()

    def test_new_run_ids_are_unique(self):
        ids = {new_run_id() for _ in range(32)}
        assert len(ids) == 32


class TestGlobal:
    def test_configure_installs_and_get_logger_binds(self, tmp_path):
        path = str(tmp_path / "g.jsonl")
        configure(level="debug", path=path, quiet=True, run_id="r-global")
        get_logger().debug("one")
        get_logger(point_id="p").debug("two")
        configure(level="info")  # release the file handle
        one, two = parse_events(path)
        assert one["run_id"] == "r-global"
        assert two["point_id"] == "p"

    def test_quiet_drops_stream(self):
        log = configure(level="info", quiet=True)
        assert log.stream is None

    def test_default_stream_resolves_stderr_lazily(self):
        # the sentinel must survive harnesses swapping sys.stderr out
        log = configure(level="info")
        assert log.stream is obs_log.STDERR
        log.info("emits to the *current* stderr without raising")


class TestParsing:
    def test_parse_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": "other/3", "event": "x"}\n')
        with pytest.raises(BenchError, match="bad.jsonl:1: unsupported event schema"):
            parse_events(str(path))

    def test_parse_names_the_malformed_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        good = json.dumps({"v": EVENT_SCHEMA_VERSION, "ts": 1.0, "level": "info", "event": "x"})
        path.write_text(good + "\n\n" + good[:20] + "\n")
        with pytest.raises(BenchError, match=r"torn\.jsonl:3: invalid JSON"):
            parse_events(str(path))
        path.write_text(good + "\n[1, 2]\n")
        with pytest.raises(BenchError, match=r"torn\.jsonl:2: expected a JSON object, got list"):
            parse_events(str(path))

    def test_parse_skips_blank_lines(self, tmp_path):
        path = tmp_path / "e.jsonl"
        record = {"v": EVENT_SCHEMA_VERSION, "ts": 1.0, "level": "info", "event": "x"}
        path.write_text(json.dumps(record) + "\n\n")
        assert len(parse_events(str(path))) == 1
