"""Critical-path attribution: invariants, identity with the parent, scale.

The central contract under test: every microsecond between a request's
submit and its completion is charged to exactly one category, the charges
sum to the request's total latency (no float drift beyond tolerance) and
the segments form one gap-free chain.  PR 21 rebuilt the analysis around
one pass over the spans; ``TestParentIdentity`` holds every answer to the
digests captured at the parent commit, ``TestOnePass`` shows by counting
(windows per request, stream reads) that the work no longer grows with
the length of the run; the partition's arithmetic on hand-built spans,
no simulator in the loop, is in ``test_report.py``.
"""

import builtins
import contextlib
import io
import json
import math
import pathlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Session, paper_platform
from repro.bench import run_traced
from repro.cli import main
from repro.obs import critical_path, to_chrome_trace, validate_chrome_trace
from repro.obs.critical_path import (
    CATEGORIES,
    OVERLAY_TID,
    analyze_session,
    attribute_requests,
    attribution_table,
    blame_by_rail,
    blame_table,
    category_totals,
    critical_path_trace_events,
    rail_timeline,
    timeline_table,
)
from repro.obs.spans import SpanRecorder
from repro.sim.backend import available_backends
from tests.core.ask_first_capture import _flood
from tests.obs import analysis_capture, analyze_cli_capture

DATA = pathlib.Path(__file__).parent / "data"
PARENT = json.loads((DATA / "analysis_parent.json").read_text())
CLI_PARENT = json.loads((DATA / "analyze_cli_parent.json").read_text())


@pytest.fixture(scope="module")
def fig6_session():
    """The paper's Fig 6 workload: aggregation on both rails, traced."""
    return run_traced("fig6")


@pytest.fixture(scope="module")
def fig6_report(fig6_session):
    return analyze_session(fig6_session)


@pytest.fixture(scope="module")
def failover_session():
    """A traced run under a fault plan (chunk losses, retries)."""
    return run_traced("failover")


@pytest.fixture(scope="module")
def failover_report(failover_session):
    return analyze_session(failover_session)


class TestInvariants:
    def test_fig6_attributions_verify_clean(self, fig6_report):
        assert fig6_report.verify() == []
        assert fig6_report.attributions  # the workload did complete sends

    def test_attributed_sums_to_total_per_request(self, fig6_report):
        for attr in fig6_report.attributions:
            assert math.isclose(
                attr.attributed_us, attr.total_us, rel_tol=1e-9, abs_tol=1e-6
            )

    def test_segments_form_connected_chain(self, fig6_report):
        for attr in fig6_report.attributions:
            assert attr.connected()
            for a, b in zip(attr.segments, attr.segments[1:]):
                assert a.t1 == b.t0  # exact adjacency, not just closeness

    def test_categories_closed_set(self, fig6_report):
        for attr in fig6_report.attributions:
            for seg in attr.segments:
                assert seg.category in CATEGORIES
                assert seg.duration > 0.0

    def test_category_totals_sum_to_grand_total(self, fig6_report):
        totals = category_totals(fig6_report.attributions)
        assert set(totals) <= set(CATEGORIES)
        grand = sum(a.total_us for a in fig6_report.attributions)
        assert sum(totals.values()) == pytest.approx(grand, rel=1e-9)

    def test_node_filter_restricts_attributions(self, fig6_session):
        only0 = attribute_requests(fig6_session, node_id=0)
        assert only0 and all(a.node == 0 for a in only0)
        both = attribute_requests(fig6_session)
        assert {a.node for a in both} == {0, 1}


class TestParentIdentity:
    @pytest.mark.parametrize("backend", available_backends())
    def test_every_answer_matches_the_parent_capture(self, backend, monkeypatch):
        """``to_dict()``, the Chrome overlay and node 0's lifecycle table
        (which the parent computed in a module of its own) of all eight
        trace targets and four larger runs, byte for byte, on both kernels."""
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        assert analysis_capture.capture() == PARENT

    @pytest.mark.parametrize("case", sorted(CLI_PARENT))
    def test_the_cli_analysis_matches_the_parent_capture(self, case, tmp_path):
        """``repro analyze T --json`` of every trace target, in memory and
        through a ``--stream`` file (unsampled, rate- and head-sampled)."""
        target, flags = case.split("/")
        stdout = analyze_cli_capture.analyze_stdout(target, flags, str(tmp_path))
        assert analyze_cli_capture.digest(stdout) == CLI_PARENT[case]


def _flood_session(count):
    sizes = random.Random(20).choices((8, 64, 512, 2048, 4096), k=count)
    session = Session(paper_platform(), strategy="aggreg_multirail", trace=True)
    _flood(session, sizes, window=32)
    return session


class TestOnePass:
    """Linear, shown by counts: no clock in these tests."""

    def test_windows_per_request_do_not_grow_with_the_run(self, monkeypatch):
        partition, seen = critical_path._partition, []

        def counting(t0, t1, windows):
            seen.append(len(windows))
            return partition(t0, t1, windows)

        monkeypatch.setattr(critical_path, "_partition", counting)
        means = []
        for count in (500, 2000):
            seen.clear()
            assert len(attribute_requests(_flood_session(count))) == count
            assert max(seen) < 32  # parent: 182 and 750, every span of the node
            means.append(sum(seen) / len(seen))
        assert means[1] == pytest.approx(means[0], rel=0.10)

    @pytest.mark.parametrize("command", ["trace", "analyze"])
    def test_the_cli_reads_the_stream_it_wrote_0_times(self, command, tmp_path, monkeypatch):
        real_open, opened = builtins.open, []
        path = str(tmp_path / "spans.jsonl")

        def watching(file, mode="r", *args, **kwargs):
            if file == path:
                opened.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", watching)
        argv = [command, "fig6", "--stream", path, "--json"]
        if command == "trace":
            argv += ["-o", str(tmp_path / "trace.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert opened == ["w"]  # parent: then "r" twice for trace, once for analyze

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 12)), min_size=1, max_size=30
        ),
        st.integers(0, 50),
        st.integers(0, 12),
    )
    def test_lane_returns_exactly_the_brute_force_overlap(self, spans, q0, length):
        """Offloaded PIO copies overlap (an early span may outlast later
        ones), and a hand-filled recorder need not be in start order."""
        recorder = SpanRecorder(enabled=True)
        for t0, dur in spans:
            recorder.add(0, "rail:myri10g", "pio", "pio", float(t0), float(t0 + dur))
        index = critical_path.index_spans(SimpleNamespace(spans=recorder))
        lane = index.nodes[0].lanes["pio"]
        q1 = q0 + length
        assert lane.overlapping(q0, q1) == [
            s for s in recorder if min(s.t1, q1) > max(s.t0, q0)
        ]


class TestFig6Reconciliation:
    def test_multirail_pays_idle_poll_on_both_rails(self, fig6_report):
        """Fig 6's point: with two rails, the idle NIC's mandatory polls
        tax the critical path even for requests that never touch it."""
        tax = fig6_report.poll_tax_totals()
        assert set(tax) == {"myri10g", "qsnet2"}
        assert all(us > 0.0 for us in tax.values())
        assert category_totals(fig6_report.attributions)["idle_poll"] > 0.0


class TestFailoverAttribution:
    def test_failover_report_verifies_clean(self, failover_report):
        assert failover_report.verify() == []

    def test_failover_retry_time_attributed(self, failover_report):
        totals = category_totals(failover_report.attributions)
        assert totals.get("failover_retry", 0.0) > 0.0

    def test_fault_free_run_has_no_failover_time(self, fig6_report):
        totals = category_totals(fig6_report.attributions)
        assert totals.get("failover_retry", 0.0) == 0.0


class TestRailTimeline:
    def test_utilization_bounded_and_binned(self, fig6_session):
        timeline = rail_timeline(fig6_session, bins=16)
        assert set(timeline.utilization) == {"myri10g", "qsnet2"}
        for series in timeline.utilization.values():
            assert len(series) == 16
            assert all(0.0 <= u <= 1.0 + 1e-9 for u in series)

    def test_imbalance_is_max_minus_min(self, fig6_session):
        timeline = rail_timeline(fig6_session, bins=8)
        for i, imb in enumerate(timeline.imbalance):
            us = [s[i] for s in timeline.utilization.values()]
            assert imb == pytest.approx(max(us) - min(us))


class TestRendering:
    def test_tables_render(self, fig6_report):
        blame = blame_table(fig6_report.attributions).render()
        assert "idle_poll" in blame or "dma" in blame
        assert attribution_table(fig6_report.attributions).render()
        assert timeline_table(fig6_report.timeline).render()
        by_rail = blame_by_rail(fig6_report.attributions)
        assert set(by_rail) <= {"myri10g", "qsnet2", ""}

    def test_report_to_dict_is_json_shaped(self, fig6_report):
        import json

        doc = fig6_report.to_dict()
        json.dumps(doc)  # no exotic types
        assert doc["requests"]
        for req in doc["requests"]:
            assert set(req["by_category"]) == set(CATEGORIES)

    def test_overlay_merges_into_valid_chrome_trace(
        self, fig6_session, fig6_report
    ):
        doc = to_chrome_trace(fig6_session)
        base_events = len(doc["traceEvents"])
        overlay = critical_path_trace_events(fig6_report.attributions)
        doc["traceEvents"].extend(overlay)
        assert validate_chrome_trace(doc) == []
        lanes = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["tid"] == OVERLAY_TID
        ]
        assert lanes and all(
            e["args"]["name"] == "critical path" for e in lanes
        )
        segs = [
            e for e in doc["traceEvents"][base_events:] if e["ph"] == "X"
        ]
        assert segs and all(s["name"] in CATEGORIES for s in segs)
