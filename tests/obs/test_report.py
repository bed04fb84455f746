"""Per-request lifecycle report — the coarse view of the attribution:
latency decomposition, the Fig 6 idle-poll regression test, and the
partition's arithmetic on hand-built spans."""

from types import SimpleNamespace

import pytest

from repro import Session, run_pingpong
from repro.obs import (
    attribute_requests,
    lifecycle_report,
    lifecycle_table,
    poll_tax_by_rail,
)
from repro.obs.spans import SpanRecorder
from repro.util.units import MB


class TestLifecycle:
    @pytest.fixture()
    def traced(self, plat2):
        session = Session(plat2, strategy="greedy", trace=True)
        run_pingpong(session, 1 * MB, segments=2, reps=1, warmup=1)
        run_pingpong(session, 64, segments=1, reps=2, warmup=0)
        return session

    def test_rows_cover_all_completed_sends(self, traced):
        rows = lifecycle_report(traced, node_id=0)
        # warmup + measured reps, 2 segments large + 1 segment small x2
        assert len(rows) == len([r for r in traced.engine(0).sent_log if r.done])
        assert rows == sorted(rows, key=lambda r: (r.submitted_at, r.node, r.seq))

    def test_components_non_negative_and_consistent(self, traced):
        for row in lifecycle_report(traced):
            assert row.total_us >= 0
            assert row.queue_us >= 0
            assert row.wire_us >= 0
            assert row.total_us == pytest.approx(row.queue_us + row.wire_us)
            assert row.first_commit_at is not None
            assert row.submitted_at <= row.first_commit_at <= row.completed_at
            # polling happens inside the request's lifetime, so the tax can
            # never exceed the total
            assert sum(row.poll_tax_by_rail.values()) <= row.total_us + 1e-9

    def test_node_filter(self, traced):
        all_rows = lifecycle_report(traced)
        n0 = lifecycle_report(traced, node_id=0)
        assert {r.node for r in n0} == {0}
        assert len(all_rows) > len(n0)  # pong side sends too

    def test_fig6_idle_rail_poll_tax_nonzero(self, plat2):
        """The paper's Fig 6 penalty: with aggregation pinned to the fastest
        NIC, small sends never touch Quadrics, yet the *mandatory* poll of
        the idle Myri-10G/Quadrics rails still charges every request."""
        session = Session(plat2, strategy="aggreg_multirail", trace=True)
        run_pingpong(session, 64, segments=2, reps=3, warmup=1)
        rows = lifecycle_report(session, node_id=0)
        assert rows
        tax = poll_tax_by_rail(rows)
        # both rails are polled every sweep; at least the rail the small
        # messages do NOT ride must show idle-poll time
        assert tax.get("myri10g", 0.0) > 0.0
        assert sum(tax.values()) > 0.0

    def test_single_rail_session_has_no_cross_rail_tax(self, mx_plat):
        session = Session(mx_plat, strategy="single_rail", trace=True)
        run_pingpong(session, 64, reps=1, warmup=0)
        rows = lifecycle_report(session, node_id=0)
        for row in rows:
            assert set(row.poll_tax_by_rail) <= {"myri10g"}

    def test_untraced_session_reports_empty(self, plat2):
        session = Session(plat2, strategy="greedy")
        run_pingpong(session, 64, reps=1)
        assert lifecycle_report(session) == []

    def test_table_renders(self, traced):
        rows = lifecycle_report(traced, node_id=0)
        text = lifecycle_table(rows).render()
        assert "total us" in text and "queue us" in text and "wire us" in text
        assert text.count("\n") >= len(rows)

    def test_the_obs_facade_serves_the_lifecycle_report(self, traced):
        from repro.obs import critical_path

        assert lifecycle_report is critical_path.lifecycle_report
        assert lifecycle_report(traced, 0) == lifecycle_report(traced, node_id=0) != []


# --------------------------------------------------------------------- #
# hand-built session: the Fig 6 idle-poll decomposition on known windows
# --------------------------------------------------------------------- #
def _poll(spans, node, rail, t0, t1, pkts=0):
    spans.add(node, "pump", "poll", "poll", t0, t1, {"rail": rail, "pkts": pkts})


def _request(seq, submitted_at, first_commit_at, completed_at, size=1024):
    return SimpleNamespace(
        done=True,
        peer=1,
        tag=7,
        seq=seq,
        payload=SimpleNamespace(size=size),
        submitted_at=submitted_at,
        first_commit_at=first_commit_at,
        completed_at=completed_at,
    )


class _FakeSession:
    """Just enough Session surface for the analysis: a real recorder
    filled by hand, and the engines' request logs."""

    def __init__(self, spans, sent_logs_by_node):
        self.spans = spans
        self.engines = [
            SimpleNamespace(node_id=node, sent_log=log)
            for node, log in sorted(sent_logs_by_node.items())
        ]

    def engine(self, node_id):
        return self.engines[node_id]


class TestHandBuiltOverlap:
    """Exact arithmetic on fabricated windows — the numbers the Fig 6
    decomposition rests on, with no simulator in the loop."""

    def make_session(self):
        # request alive [10, 30]; polls overlap 2us (clipped head), 3us
        # (contained), 2us (clipped tail); one poll fully outside, one
        # poll that returned a packet (not idle) and must not count.
        spans = SpanRecorder(enabled=True)
        _poll(spans, 0, "myri10g", 5.0, 12.0)   # overlap [10,12] = 2
        _poll(spans, 0, "qsnet2", 15.0, 18.0)   # overlap = 3
        _poll(spans, 0, "myri10g", 28.0, 35.0)  # overlap [28,30] = 2
        _poll(spans, 0, "myri10g", 40.0, 45.0)  # outside -> 0
        _poll(spans, 0, "qsnet2", 11.0, 13.0, pkts=1)  # busy poll -> 0
        _poll(spans, 1, "myri10g", 10.0, 30.0)  # other node -> 0
        return _FakeSession(spans, {0: [_request(0, 10.0, 14.0, 30.0)], 1: []})

    def test_poll_tax_exact_per_rail(self):
        rows = lifecycle_report(self.make_session(), node_id=0)
        assert len(rows) == 1
        row = rows[0]
        assert row.poll_tax_by_rail == pytest.approx({"myri10g": 4.0, "qsnet2": 3.0})
        assert row.queue_us == pytest.approx(4.0)
        assert row.wire_us == pytest.approx(16.0)
        assert row.total_us == pytest.approx(20.0)

    def test_poll_tax_by_rail_aggregates_rows(self):
        session = self.make_session()
        # a second request overlapping only the tail poll on myri10g
        session.engines[0].sent_log.append(_request(1, 41.0, 42.0, 44.0))
        rows = lifecycle_report(session, node_id=0)
        assert len(rows) == 2
        tax = poll_tax_by_rail(rows)
        # row 0: mx 4 + elan 3; row 1: mx overlap of [41,44] with [40,45] = 3
        assert tax == pytest.approx({"myri10g": 7.0, "qsnet2": 3.0})

    def test_zero_width_overlap_not_charged(self):
        spans = SpanRecorder(enabled=True)
        _poll(spans, 0, "myri10g", 0.0, 10.0)
        reqs = {0: [_request(0, 10.0, 11.0, 12.0)]}  # poll ends as it starts
        rows = lifecycle_report(_FakeSession(spans, reqs), node_id=0)
        assert rows[0].poll_tax_by_rail == {}

    def test_lifecycle_table_exact_cells(self):
        rows = lifecycle_report(self.make_session(), node_id=0)
        table = lifecycle_table(rows)
        assert table.headers == [
            "node", "peer", "tag#seq", "bytes", "total us", "queue us",
            "wire us", "poll myri10g (us)", "poll qsnet2 (us)",
        ]
        assert table.rows == [[0, 1, "7#0", 1024, 20.0, 4.0, 16.0, 4.0, 3.0]]
        text = table.render()
        assert "poll myri10g (us)" in text and "7#0" in text

    def test_partition_exact_chain(self):
        """Known pio / other-pio / handle / idle-poll windows in, the
        exact chain out: priorities, clipping at both ends, queueing as
        the fallback, and two same-priority ties decided by span order."""
        spans = SpanRecorder(enabled=True)
        mine = {"dst": 1, "reqs": [[7, 0]]}
        _poll(spans, 0, "myri10g", 5.0, 11.0)  # clipped head
        spans.add(0, "pump", "commit", "commit", 11.0, 14.0, {"rail": "myri10g", **mine})
        spans.add(0, "rail:myri10g", "pio", "pio", 12.0, 14.0, {"rail": "myri10g", **mine})
        # someone else's copy, offloaded: in flight under and past ours
        spans.add(
            0, "rail:qsnet2", "pio", "pio", 13.0, 17.0,
            {"rail": "qsnet2", "dst": 1, "reqs": [[7, 1]]},
        )
        # the later handle has the lower span id and wins [18, 19]
        spans.add(0, "pump", "handle", "handle", 18.0, 21.0, {"rail": "qsnet2"})
        spans.add(0, "pump", "handle", "handle", 16.0, 19.0, {"rail": "myri10g"})
        _poll(spans, 0, "qsnet2", 21.0, 23.0)
        _poll(spans, 0, "myri10g", 22.0, 24.0)  # loses [22, 23] to the poll above
        _poll(spans, 0, "myri10g", 28.0, 35.0)  # clipped tail
        _poll(spans, 0, "qsnet2", 40.0, 45.0)   # outside
        session = _FakeSession(spans, {0: [_request(0, 10.0, 12.0, 30.0)]})
        (attr,) = attribute_requests(session)
        assert [(s.t0, s.t1, s.category, s.rail) for s in attr.segments] == [
            (10.0, 11.0, "idle_poll", "myri10g"),
            (11.0, 12.0, "aggregation_wait", "myri10g"),
            (12.0, 14.0, "pio_copy", "myri10g"),
            (14.0, 17.0, "rail_contention", "qsnet2"),   # other pio beats handle
            (17.0, 18.0, "rail_contention", "myri10g"),
            (18.0, 21.0, "rail_contention", "qsnet2"),
            (21.0, 23.0, "idle_poll", "qsnet2"),
            (23.0, 24.0, "idle_poll", "myri10g"),
            (24.0, 28.0, "queueing", ""),
            (28.0, 30.0, "idle_poll", "myri10g"),
        ]
        assert attr.attributed_us == attr.total_us == 20.0 and attr.connected()
        # the tax counts every idle poll in flight, covered or not
        assert attr.poll_tax_by_rail == {"myri10g": 5.0, "qsnet2": 2.0}
