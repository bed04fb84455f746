"""Unit tests for counters, tracing and usage summaries."""

import pytest

from repro import Session, run_pingpong
from repro.obs.metrics import Counters
from repro.obs.timeline import rail_byte_shares, rail_usage_table
from repro.util.units import MB


class TestCounters:
    def test_add_and_get(self):
        c = Counters()
        c.add("x")
        c.add("x", 4)
        assert c["x"] == 5
        assert c["missing"] == 0

    def test_snapshot_is_copy(self):
        c = Counters()
        c.add("x")
        snap = c.snapshot()
        c.add("x")
        assert snap == {"x": 1} and c["x"] == 2

    def test_iteration_sorted(self):
        c = Counters()
        c.add("zebra")
        c.add("alpha")
        assert [k for k, _ in c] == ["alpha", "zebra"]

    def test_merge_inplace(self):
        a, b = Counters(), Counters()
        a.add("x", 1)
        b.add("x", 10)
        b.add("y", 2)
        result = a.merge_inplace(b)
        assert result is a
        assert a["x"] == 11 and a["y"] == 2
        assert b["x"] == 10  # source untouched

    def test_iadd(self):
        a, b = Counters(), Counters()
        a.add("x", 1)
        b.add("x", 2)
        a += b
        assert a["x"] == 3

    def test_session_counters_use_merge(self, plat2):
        from repro import Session, run_pingpong

        session = Session(plat2, strategy="greedy")
        run_pingpong(session, 1024, reps=1, warmup=0)
        merged = session.counters()
        assert merged["sweeps"] == sum(
            e.counters["sweeps"] for e in session.engines
        )


class TestUsageSummaries:
    def test_rail_usage_table_rows(self, plat2):
        session = Session(plat2, strategy="greedy")
        run_pingpong(session, 4096, segments=2, reps=1)
        table = rail_usage_table(session)
        assert len(table.rows) == 4  # 2 nodes x 2 rails
        assert table.column("rail") == ["qsnet2", "myri10g"] * 2 or table.column(
            "rail"
        ) == ["myri10g", "qsnet2"] * 2

    def test_rail_byte_shares_sum_to_one(self, plat2, samples):
        session = Session(plat2, strategy="split_balance", samples=samples)
        run_pingpong(session, 8 * MB, reps=1)
        shares = rail_byte_shares(session, node_id=0)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["myri10g"] > shares["qsnet2"]

    def test_rail_byte_shares_idle_session(self, plat2):
        session = Session(plat2)
        shares = rail_byte_shares(session)
        assert shares == {"myri10g": 0.0, "qsnet2": 0.0}

    def test_commit_timeline_requires_trace(self, plat2):
        traced = Session(plat2, strategy="aggreg_multirail", trace=True)
        run_pingpong(traced, 64, reps=1, warmup=0)
        times = [s.t0 for s in traced.spans if s.cat == "commit"]
        assert times, "traced session recorded no commits"
        assert times == sorted(times)
        untraced = Session(plat2)
        run_pingpong(untraced, 64, reps=1, warmup=0)
        assert [s for s in untraced.spans if s.cat == "commit"] == []


class TestGantt:
    def test_busy_intervals_recorded(self, plat2):
        from repro.obs.timeline import busy_intervals

        session = Session(plat2, strategy="greedy", trace=True)
        run_pingpong(session, 256 * 1024, segments=2, reps=1, warmup=0)
        intervals = busy_intervals(session, 0)
        assert set(intervals) == {"myri10g", "qsnet2"}
        for rail, ivs in intervals.items():
            for start, end, kind in ivs:
                assert end >= start >= 0
                assert kind in ("pio", "dma")
        # large segments moved by DMA on both rails
        kinds = {k for ivs in intervals.values() for _s, _e, k in ivs}
        assert "dma" in kinds and "pio" in kinds  # pio = rdv control packets

    def test_gantt_renders_lanes(self, plat2):
        from repro.obs.timeline import gantt

        session = Session(plat2, strategy="greedy", trace=True)
        run_pingpong(session, 512 * 1024, segments=2, reps=1, warmup=0)
        text = gantt(session, 0, width=40)
        lines = text.splitlines()
        assert lines[0].startswith("myri10g") or lines[0].startswith("qsnet2")
        assert "=" in text  # DMA marks
        assert "us" in lines[-1]

    def test_gantt_without_trace(self, plat2):
        from repro.obs.timeline import gantt

        session = Session(plat2, strategy="greedy")
        run_pingpong(session, 1024, reps=1, warmup=0)
        assert "trace=True" in gantt(session, 0)

    def test_pio_intervals_only_below_threshold(self, mx_plat):
        from repro.obs.timeline import busy_intervals

        session = Session(mx_plat, strategy="single_rail", trace=True)
        run_pingpong(session, 100, reps=1, warmup=0)
        intervals = busy_intervals(session, 0)
        kinds = {k for ivs in intervals.values() for _s, _e, k in ivs}
        assert kinds == {"pio"}

    def test_busy_intervals_are_merged(self, plat2):
        from repro.obs.timeline import busy_intervals

        session = Session(plat2, strategy="greedy", trace=True)
        run_pingpong(session, 512 * 1024, segments=4, reps=2, warmup=0)
        for ivs in busy_intervals(session, 0).values():
            for (s0, e0, k0), (s1, _e1, k1) in zip(ivs, ivs[1:]):
                assert s0 <= s1  # sorted
                # same-kind neighbours never overlap after merging
                if k0 == k1:
                    assert s1 > e0


class TestMergeIntervals:
    def test_overlapping_same_kind_coalesce(self):
        from repro.obs.timeline import merge_intervals

        ivs = [(0.0, 2.0, "pio"), (1.0, 3.0, "pio"), (5.0, 6.0, "pio")]
        assert merge_intervals(ivs) == [(0.0, 3.0, "pio"), (5.0, 6.0, "pio")]

    def test_adjacent_same_kind_coalesce(self):
        from repro.obs.timeline import merge_intervals

        assert merge_intervals([(0.0, 1.0, "dma"), (1.0, 2.0, "dma")]) == [
            (0.0, 2.0, "dma")
        ]

    def test_different_kinds_never_merge(self):
        from repro.obs.timeline import merge_intervals

        ivs = [(0.0, 2.0, "pio"), (1.0, 3.0, "dma")]
        assert merge_intervals(ivs) == [(0.0, 2.0, "pio"), (1.0, 3.0, "dma")]

    def test_unsorted_input_and_containment(self):
        from repro.obs.timeline import merge_intervals

        ivs = [(4.0, 5.0, "pio"), (0.0, 10.0, "pio"), (2.0, 3.0, "pio")]
        assert merge_intervals(ivs) == [(0.0, 10.0, "pio")]

    def test_empty(self):
        from repro.obs.timeline import merge_intervals

        assert merge_intervals([]) == []


class TestGanttFooter:
    @staticmethod
    def _footer_checks(text: str, width: int):
        lines = text.splitlines()
        axis, footer = lines[-2], lines[-1]
        plus = axis.index("+")
        # the right label's last char never drifts past the axis end
        assert len(footer) == len(axis)
        assert footer.rstrip().endswith("us")
        if "0.0us" in footer:
            # when both labels fit, the left one sits under the origin
            assert footer[plus + 1 :].startswith("0.0us")

    def test_footer_aligned_default_width(self, plat2):
        from repro.obs.timeline import gantt

        session = Session(plat2, strategy="greedy", trace=True)
        run_pingpong(session, 512 * 1024, segments=2, reps=1, warmup=0)
        self._footer_checks(gantt(session, 0), 72)

    def test_footer_aligned_narrow_width(self, plat2):
        from repro.obs.timeline import gantt

        session = Session(plat2, strategy="greedy", trace=True)
        run_pingpong(session, 512 * 1024, segments=2, reps=1, warmup=0)
        for width in (12, 20, 40):
            self._footer_checks(gantt(session, 0, width=width), width)
