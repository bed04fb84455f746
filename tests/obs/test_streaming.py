"""The span stream: sampling selection, the stream file and its reader.

``TestWindow``, named for the spill window the stream once had, holds the
stream file's writer and reader.
"""

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
    load_span_stream,
    sampled_spans,
    write_span_stream,
)
from repro.util.errors import ConfigError


def _span_dicts(spans):
    return [s.to_dict() for s in spans]


def _fig6_kept(sampler):
    return sampled_spans(run_traced("fig6").spans.spans, sampler)


class TestWindow:
    def test_replay_identical_to_unbounded_recorder(self, tmp_path):
        """Unsampled, the stream reads back to the in-memory recorder."""
        full = run_traced("fig6").spans
        path = str(tmp_path / "s.jsonl")
        write_span_stream(path, sampled_spans(full.spans, SpanSampler()), SpanSampler())
        reread = load_span_stream(path)
        assert len(reread) == len(full)
        assert _span_dicts(reread) == _span_dicts(full)
        assert [s.sid for s in reread.by_node(0)] == [s.sid for s in full.by_node(0)]
        assert reread.tracks(0) == full.tracks(0)

    def test_header_carries_schema_and_sampler(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        write_span_stream(path, [], SpanSampler(rate=0.5, seed=3))
        with open(path) as fh:
            header = json.loads(fh.readline())
        assert header == {
            "schema": STREAM_SCHEMA_VERSION,
            "sampler": {"rate": 0.5, "head": None, "seed": 3},
        }

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
    def test_rate_zero_drops_all_roots(self):
        assert _fig6_kept(SpanSampler(rate=0.0)) == []

    def test_rate_one_keeps_everything(self):
        full = run_traced("fig6").spans
        assert _span_dicts(_fig6_kept(SpanSampler(rate=1.0))) == _span_dicts(full)

    def test_head_keeps_prefix_by_sid(self):
        recorder = SpanRecorder(enabled=True)
        for i in range(20):
            recorder.add(0, "t", f"n{i}", "cat", float(i), float(i) + 1.0)
        kept = sampled_spans(recorder.spans, SpanSampler(head=5))
        assert [s.sid for s in kept] == [0, 1, 2, 3, 4]

    def test_children_inherit_root_decision(self):
        session = Session(paper_platform(), strategy="aggreg", trace=True)
        run_pingpong(session, 64 * 1024, segments=2, reps=2, warmup=1)
        spans = session.spans.spans
        kept = sampled_spans(spans, SpanSampler(rate=0.5, seed=1))
        sids = {s.sid for s in kept}
        assert 0 < len(kept) < len(spans)
        for span in spans:
            if span.parent is not None:
                assert (span.sid in sids) == (span.parent in sids)

    def test_same_seed_same_sample_across_runs(self):
        a = _span_dicts(_fig6_kept(SpanSampler(rate=0.4, seed=11)))
        b = _span_dicts(_fig6_kept(SpanSampler(rate=0.4, seed=11)))
        assert a == b and 0 < len(a)

    def test_different_seed_different_sample(self):
        spans = run_traced("fig6").spans.spans
        samples = {
            tuple(s.sid for s in sampled_spans(spans, SpanSampler(rate=0.4, seed=seed)))
            for seed in range(4)
        }
        assert len(samples) > 1

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            SpanSampler(rate=1.5)
        with pytest.raises(ValueError, match="head"):
            SpanSampler(head=-1)

    def test_open_spans_are_not_selected(self):
        recorder = SpanRecorder(enabled=True)
        recorder.begin(0, "pump", "sweep", "sweep", 0.0)  # never ended
        recorder.add(0, "rdv", "rdv", "rdv", 0.0, 1.0)
        assert [s.name for s in sampled_spans(recorder.spans, SpanSampler())] == ["rdv"]


class TestSessionIntegration:
    def test_bool_trace_still_builds_plain_recorder(self):
        session = Session(paper_platform(), trace=True)
        assert type(session.spans) is SpanRecorder and session.spans.enabled
        off = Session(paper_platform(), trace=False)
        assert not off.spans.enabled

    def test_trace_takes_a_bool_only(self):
        with pytest.raises(ConfigError, match="trace must be a bool, got SpanRecorder"):
            Session(paper_platform(), trace=SpanRecorder(enabled=True))
