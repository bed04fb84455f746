"""Streaming tracer: bounded window, spill/replay identity, sampling."""

import json

import pytest

from repro.bench import run_traced
from repro.bench.pingpong import run_pingpong
from repro.core.session import Session
from repro.hardware.presets import paper_platform
from repro.obs.spans import SpanError, SpanRecorder
from repro.obs.streaming import (
    STREAM_SCHEMA_VERSION,
    SpanSampler,
    StreamingTracer,
    load_span_stream,
)


def _span_dicts(recorder):
    return [s.to_dict() for s in recorder]


class TestWindow:
    def test_peak_buffered_never_exceeds_window(self, tmp_path):
        tracer = StreamingTracer(str(tmp_path / "s.jsonl"), window=16)
        run_traced("fig6", trace=tracer)
        assert tracer.peak_buffered <= 16
        assert tracer.spilled > 0  # the workload overflows a 16-span window
        assert len(tracer) == tracer.spilled + len(tracer.spans)

    def test_replay_identical_to_unbounded_recorder(self, tmp_path):
        full = run_traced("fig6", trace=True).spans
        tracer = StreamingTracer(str(tmp_path / "s.jsonl"), window=8)
        run_traced("fig6", trace=tracer)
        assert len(tracer) == len(full)
        assert _span_dicts(tracer) == _span_dicts(full)
        # query helpers ride on __iter__, so they agree too
        assert [s.sid for s in tracer.by_node(0)] == [s.sid for s in full.by_node(0)]
        assert tracer.tracks(0) == full.tracks(0)

    def test_replay_survives_close_and_reload(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        tracer = StreamingTracer(path, window=8)
        run_traced("fig6", trace=tracer)
        before = _span_dicts(tracer)
        tracer.close()
        assert len(tracer.spans) == 0  # window flushed to disk
        assert _span_dicts(tracer) == before
        reloaded = load_span_stream(path)
        assert _span_dicts(reloaded) == before

    def test_recording_after_close_raises(self, tmp_path):
        tracer = StreamingTracer(str(tmp_path / "s.jsonl"), window=4)
        tracer.close()
        with pytest.raises(SpanError, match="closed"):
            tracer.add(0, "t", "n", "cat", 0.0, 1.0)

    def test_clear_truncates_stream(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        tracer = StreamingTracer(path, window=2)
        for i in range(10):
            tracer.add(0, "t", f"n{i}", "cat", float(i), float(i) + 1.0)
        tracer.clear()
        assert len(tracer) == 0 and tracer.spilled == 0
        assert tracer.peak_buffered == 0
        header = json.loads(open(path).readline())
        assert header["schema"] == STREAM_SCHEMA_VERSION

    def test_bad_window_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="window"):
            StreamingTracer(str(tmp_path / "s.jsonl"), window=0)

    def test_header_carries_schema_and_sampler(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        StreamingTracer(
            path, window=4, sampler=SpanSampler(rate=0.5, seed=3)
        ).close()
        header = json.loads(open(path).readline())
        assert header["schema"] == STREAM_SCHEMA_VERSION
        assert header["sampler"] == {"rate": 0.5, "head": None, "seed": 3}

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"schema": "other/9"}\n')
        with pytest.raises(SpanError, match="schema"):
            load_span_stream(str(path))

    def test_load_refuses_a_file_that_is_not_utf8_in_one_line(self, tmp_path):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(SpanError, match="cannot read") as info:
            load_span_stream(str(path))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("lines", [
        ["[1]"],
        [json.dumps({"schema": STREAM_SCHEMA_VERSION}), "[1]"],
        [json.dumps({"schema": STREAM_SCHEMA_VERSION}), "7"],
    ])
    def test_load_refuses_a_line_that_is_not_an_object_in_one_line(self, tmp_path, lines):
        path = tmp_path / "list.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpanError, match=f":{len(lines)}: expected a JSON object") as info:
            load_span_stream(str(path))
        assert "\n" not in str(info.value)

    def test_load_names_the_field_a_span_lacks(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps({"schema": STREAM_SCHEMA_VERSION}) + '\n{"sid": 0}\n')
        with pytest.raises(SpanError, match=":2: span lacks field 'node'"):
            load_span_stream(str(path))


class TestSampler:
    def test_rate_zero_drops_all_roots(self, tmp_path):
        tracer = StreamingTracer(
            str(tmp_path / "s.jsonl"), window=8, sampler=SpanSampler(rate=0.0)
        )
        run_traced("fig6", trace=tracer)
        assert len(tracer) == 0
        assert tracer.sampled_out > 0

    def test_rate_one_keeps_everything(self, tmp_path):
        full = run_traced("fig6", trace=True).spans
        tracer = StreamingTracer(
            str(tmp_path / "s.jsonl"), window=8, sampler=SpanSampler(rate=1.0)
        )
        run_traced("fig6", trace=tracer)
        assert tracer.sampled_out == 0
        assert _span_dicts(tracer) == _span_dicts(full)

    def test_head_keeps_prefix_by_sid(self, tmp_path):
        tracer = StreamingTracer(
            str(tmp_path / "s.jsonl"), window=8, sampler=SpanSampler(head=5)
        )
        for i in range(20):
            tracer.add(0, "t", f"n{i}", "cat", float(i), float(i) + 1.0)
        assert sorted(s.sid for s in tracer) == [0, 1, 2, 3, 4]

    def test_children_inherit_root_decision(self, tmp_path):
        tracer = StreamingTracer(
            str(tmp_path / "s.jsonl"), window=64, sampler=SpanSampler(rate=0.5, seed=1)
        )
        session = Session(paper_platform(), strategy="aggreg", trace=tracer)
        run_pingpong(session, 64 * 1024, segments=2, reps=2, warmup=1)
        kept = {s.sid for s in tracer}
        for span in tracer:
            if span.parent is not None:
                assert span.parent in kept, "kept child of a dropped root"

    def test_same_seed_same_sample_across_runs(self, tmp_path):
        def record(path):
            tracer = StreamingTracer(
                path, window=8, sampler=SpanSampler(rate=0.4, seed=11)
            )
            run_traced("fig6", trace=tracer)
            return _span_dicts(tracer)

        a = record(str(tmp_path / "a.jsonl"))
        b = record(str(tmp_path / "b.jsonl"))
        assert a == b and 0 < len(a)

    def test_different_seed_different_sample(self, tmp_path):
        samples = set()
        for seed in range(4):
            tracer = StreamingTracer(
                str(tmp_path / f"s{seed}.jsonl"),
                window=8,
                sampler=SpanSampler(rate=0.4, seed=seed),
            )
            run_traced("fig6", trace=tracer)
            samples.add(tuple(s.sid for s in tracer))
        assert len(samples) > 1

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            SpanSampler(rate=1.5)
        with pytest.raises(ValueError, match="head"):
            SpanSampler(head=-1)

    def test_round_trip_and_off(self):
        s = SpanSampler(rate=0.25, head=100, seed=9)
        assert SpanSampler.from_dict(s.to_dict()).to_dict() == s.to_dict()
        assert s.active and not SpanSampler.off().active


class TestSessionIntegration:
    def test_session_adopts_recorder_instance(self, tmp_path):
        tracer = StreamingTracer(str(tmp_path / "s.jsonl"), window=8)
        session = Session(paper_platform(), trace=tracer)
        assert session.spans is tracer
        assert session.spans.enabled

    def test_bool_trace_still_builds_plain_recorder(self):
        session = Session(paper_platform(), trace=True)
        assert type(session.spans) is SpanRecorder and session.spans.enabled
        off = Session(paper_platform(), trace=False)
        assert not off.spans.enabled
