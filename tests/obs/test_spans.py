"""Unit tests for the span recorder and the engine's span structure."""

import pytest

from repro import Session, run_pingpong
from repro.obs import NULL_SPAN, SpanError, SpanRecorder
from repro.obs.spans import TRACK_PUMP, rail_track
from repro.util.units import MB


def _on_track(traced, track, node):
    return [s for s in traced.spans if s.track == track and s.node == node]


class TestRecorder:
    def test_begin_end_nesting(self):
        rec = SpanRecorder(enabled=True)
        outer = rec.begin(0, "pump", "sweep", "sweep", 0.0)
        inner = rec.begin(0, "pump", "poll", "poll", 0.5)
        assert inner.parent == outer.sid
        rec.end(inner, 1.0)
        rec.end(outer, 2.0)
        assert rec.open_count == 0
        assert outer.duration == 2.0 and inner.duration == 0.5

    def test_unbalanced_end_raises(self):
        rec = SpanRecorder(enabled=True)
        outer = rec.begin(0, "pump", "sweep", "sweep", 0.0)
        rec.begin(0, "pump", "poll", "poll", 0.5)
        with pytest.raises(SpanError):
            rec.end(outer, 1.0)  # inner still open

    def test_negative_duration_raises(self):
        rec = SpanRecorder(enabled=True)
        span = rec.begin(0, "pump", "sweep", "sweep", 5.0)
        with pytest.raises(SpanError):
            rec.end(span, 4.0)
        with pytest.raises(SpanError):
            rec.add(0, "rdv", "rdv#1", "rdv", 5.0, 4.0)

    def test_tracks_nest_independently(self):
        rec = SpanRecorder(enabled=True)
        a = rec.begin(0, "pump", "sweep", "sweep", 0.0)
        b = rec.begin(1, "pump", "sweep", "sweep", 0.0)
        assert a.parent is None and b.parent is None
        rec.end(b, 1.0)
        rec.end(a, 1.0)

    def test_add_and_instant(self):
        rec = SpanRecorder(enabled=True)
        s = rec.add(0, "rail:x", "dma", "dma", 1.0, 3.0, {"bytes": 42})
        i = rec.instant(0, "pump", "decision", "decision", 2.0)
        assert s.duration == 2.0 and not s.open
        assert i.duration == 0.0
        assert [x for x in rec if x.cat == "dma"] == [s]

    def test_disabled_recorder_is_inert(self):
        rec = SpanRecorder(enabled=False)
        span = rec.begin(0, "pump", "sweep", "sweep", 0.0)
        assert span is NULL_SPAN
        rec.end(span, 1.0)  # no-op, no raise
        assert rec.add(0, "rdv", "x", "rdv", 0.0, 1.0) is NULL_SPAN
        assert len(rec) == 0 and rec.open_count == 0

    def test_open_span_has_no_duration(self):
        rec = SpanRecorder(enabled=True)
        span = rec.begin(0, "pump", "sweep", "sweep", 0.0)
        assert span.open
        with pytest.raises(SpanError):
            _ = span.duration

    def test_to_dict_omits_empty_fields(self):
        rec = SpanRecorder(enabled=True)
        s = rec.add(3, "rdv", "rdv#1", "rdv", 1.0, 2.0)
        d = s.to_dict()
        assert "parent" not in d and "args" not in d
        assert d["node"] == 3 and d["t0"] == 1.0 and d["t1"] == 2.0

    def test_clear(self):
        rec = SpanRecorder(enabled=True)
        rec.begin(0, "pump", "sweep", "sweep", 0.0)
        rec.clear()
        assert len(rec) == 0 and rec.open_count == 0


class TestEngineSpans:
    @pytest.fixture()
    def traced(self, plat2):
        session = Session(plat2, strategy="greedy", trace=True)
        run_pingpong(session, 1 * MB, segments=2, reps=1, warmup=1)
        run_pingpong(session, 64, segments=1, reps=1, warmup=0)
        return session

    def test_all_spans_closed_after_run(self, traced):
        assert traced.spans.open_count == 0
        assert all(not s.open for s in traced.spans)

    def test_expected_tracks_exist(self, traced):
        tracks = traced.spans.tracks()
        for node in (0, 1):
            assert (node, TRACK_PUMP) in tracks
            assert (node, rail_track("myri10g")) in tracks
            assert (node, rail_track("qsnet2")) in tracks

    def test_pump_children_nest_in_sweeps(self, traced):
        sweeps = traced.spans.by_name("sweep", node=0)
        assert sweeps
        sweep_ids = {s.sid for s in sweeps}
        for span in _on_track(traced, TRACK_PUMP, 0):
            if span.name in ("poll", "handle", "commit"):
                assert span.parent in sweep_ids
                parent = next(s for s in sweeps if s.sid == span.parent)
                assert parent.t0 <= span.t0 and span.t1 <= parent.t1

    def test_pump_spans_appended_in_start_order(self, traced):
        """Synchronous pump spans start in record order (async rail/rdv
        spans are recorded at completion, so only sid order holds there)."""
        for node in (0, 1):
            t0s = [s.t0 for s in _on_track(traced, TRACK_PUMP, node)]
            assert t0s == sorted(t0s)
        sids = [s.sid for s in traced.spans]
        assert sids == sorted(sids)

    def test_rail_tracks_carry_pio_and_dma(self, traced):
        cats = {s.cat for s in _on_track(traced, rail_track("myri10g"), 0)}
        assert "pio" in cats and "dma" in cats

    def test_poll_spans_record_rail_and_pkts(self, traced):
        polls = traced.spans.by_name("poll", node=0)
        assert polls
        for p in polls:
            assert p.args["rail"] in ("myri10g", "qsnet2")
            assert p.args["pkts"] >= 0
        assert any(p.args["pkts"] == 0 for p in polls)  # idle polls exist

    def test_rdv_spans_for_large_transfer(self, traced):
        rdv = [s for s in traced.spans if s.cat == "rdv" and s.node == 0]
        assert rdv  # the 1 MB segments went through rendezvous
        for s in rdv:
            assert s.duration > 0

    def test_untraced_session_records_nothing(self, plat2):
        session = Session(plat2, strategy="greedy")
        run_pingpong(session, 1 * MB, segments=2, reps=1)
        assert len(session.spans) == 0
        assert not session.spans.enabled
