"""Round-trip tests of the Chrome trace-event exporter."""

import json

import pytest

from repro import Session, run_pingpong
from repro.obs import (
    SpanRecorder,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.util.units import MB


@pytest.fixture(scope="module")
def traced():
    from repro import paper_platform

    session = Session(paper_platform(), strategy="greedy", trace=True)
    run_pingpong(session, 1 * MB, segments=2, reps=1, warmup=1)
    return session


class TestChromeTrace:
    def test_round_trip_through_file(self, traced, tmp_path):
        path = str(tmp_path / "trace.json")
        n = write_chrome_trace(traced, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == []
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == n > 0

    def test_validate_catches_garbage(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "ts": -1, "dur": 1}]}
        problems = validate_chrome_trace(bad)
        assert any("ts" in p for p in problems)
        assert any("name" in p for p in problems)

    def test_per_rail_tracks_with_pio_and_dma(self, traced):
        doc = to_chrome_trace(traced)
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        cats_by_track: dict[str, set] = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                track = names[(e["pid"], e["tid"])]
                cats_by_track.setdefault(track, set()).add(e["cat"])
        for rail_trk in ("rail:myri10g", "rail:qsnet2"):
            assert {"pio", "dma"} <= cats_by_track[rail_trk]
        assert {"sweep", "poll", "commit"} <= cats_by_track["pump"]

    def test_process_metadata_per_node(self, traced):
        doc = to_chrome_trace(traced)
        procs = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs == {0: "node0", 1: "node1"}

    def test_pump_is_tid_zero(self, traced):
        doc = to_chrome_trace(traced)
        for e in doc["traceEvents"]:
            if e["ph"] == "M" and e["name"] == "thread_name" and e["args"]["name"] == "pump":
                assert e["tid"] == 0

    def test_metrics_ride_in_other_data(self, traced):
        doc = to_chrome_trace(traced)
        metrics = doc["otherData"]["metrics"]
        assert any(k.startswith("engine.sweeps") for k in metrics)

    def test_open_spans_skipped(self):
        rec = SpanRecorder(enabled=True)
        rec.begin(0, "pump", "sweep", "sweep", 0.0)  # never ended
        rec.add(0, "pump", "done", "sweep", 0.0, 1.0)
        doc = to_chrome_trace(rec)
        assert [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"] == ["done"]

    def test_json_serializable(self, traced):
        json.dumps(to_chrome_trace(traced))

    def test_a_span_stream_reads_back_to_the_same_trace(self, traced, tmp_path):
        """The one span file: what ``write_span_stream`` writes,
        ``load_span_stream`` reads back to the same trace events."""
        from repro.obs import SpanSampler, load_span_stream, write_span_stream

        path = str(tmp_path / "spans.jsonl")
        write_span_stream(path, traced.spans.spans, SpanSampler())
        events = to_chrome_trace(load_span_stream(path))["traceEvents"]
        assert events == to_chrome_trace(traced.spans)["traceEvents"]

    def test_exporting_wrong_object_raises(self):
        with pytest.raises(TypeError):
            to_chrome_trace(object())
