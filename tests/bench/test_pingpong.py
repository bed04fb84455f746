"""Unit tests for the ping-pong harness."""

import pytest

from repro import Session, run_pingpong
from repro.bench import split_even
from repro.bench.pingpong import PingPongResult
from repro.util.errors import BenchError


class TestSplitEven:
    def test_exact_division(self):
        assert split_even(8, 4) == [2, 2, 2, 2]

    def test_remainder_spread_to_front(self):
        assert split_even(10, 4) == [3, 3, 2, 2]

    def test_single_segment(self):
        assert split_even(7, 1) == [7]

    def test_sum_preserved(self):
        for total in (5, 17, 1024, 99_999):
            for parts in (1, 2, 3, 4, 7):
                if total >= parts:
                    pieces = split_even(total, parts)
                    assert sum(pieces) == total
                    assert max(pieces) - min(pieces) <= 1

    def test_too_many_parts_rejected(self):
        with pytest.raises(BenchError):
            split_even(3, 4)

    def test_zero_parts_rejected(self):
        with pytest.raises(BenchError):
            split_even(10, 0)


class TestRunPingpong:
    def test_result_fields(self, mx_plat):
        res = run_pingpong(Session(mx_plat, strategy="single_rail"), 1024, segments=2, reps=3)
        assert res.total_size == 1024 and res.segments == 2 and res.reps == 3
        assert res.one_way_us > 0
        assert res.bandwidth_MBps == pytest.approx(1024 / res.one_way_us)

    def test_deterministic_across_fresh_sessions(self, plat2):
        a = run_pingpong(Session(plat2, strategy="greedy"), 4096, segments=2)
        b = run_pingpong(Session(plat2, strategy="greedy"), 4096, segments=2)
        assert a.one_way_us == b.one_way_us

    def test_bad_reps_rejected(self, mx_plat):
        session = Session(mx_plat)
        with pytest.raises(BenchError):
            run_pingpong(session, 64, reps=0)
        with pytest.raises(BenchError):
            run_pingpong(session, 64, warmup=-1)
        with pytest.raises(BenchError):
            run_pingpong(session, 64, inter_segment_gap_us=-1.0)

    def test_real_payload_factory(self, mx_plat):
        session = Session(mx_plat, strategy="aggreg")
        res = run_pingpong(
            session, 100, segments=2, payload_factory=lambda n: b"z" * n, reps=2
        )
        assert res.total_size == 100

    def test_warmup_excluded_from_timing(self, mx_plat):
        fast = run_pingpong(Session(mx_plat, strategy="single_rail"), 64, reps=3, warmup=0)
        warm = run_pingpong(Session(mx_plat, strategy="single_rail"), 64, reps=3, warmup=3)
        # warm-up rounds must not inflate the per-rep time
        assert warm.one_way_us <= fast.one_way_us + 0.01

    def test_inter_segment_gap_increases_latency(self, mx_plat):
        base = run_pingpong(Session(mx_plat, strategy="single_rail"), 64, segments=2)
        gapped = run_pingpong(
            Session(mx_plat, strategy="single_rail"), 64, segments=2, inter_segment_gap_us=5.0
        )
        assert gapped.one_way_us > base.one_way_us + 2.0

    def test_other_node_pair(self):
        from repro import paper_platform

        session = Session(paper_platform(n_nodes=4), strategy="greedy")
        res = run_pingpong(session, 256, node_a=2, node_b=3)
        assert res.one_way_us > 0
