"""Property tests of critical-path attribution (the PR's core invariant).

Across random workloads — ping-pong and flood, with and without a random
fault plan — every completed send's critical-path attribution must

* **sum to the request's total**: the per-category charges add up to
  ``total_us`` within float tolerance (the partition is telescoping, so
  in practice it is exact);
* **form a connected chain**: segments tile ``[submitted_at,
  completed_at]`` with no gaps or overlaps;
* **stay inside the closed category set**; and
* **agree with its own coarse view**: ``queue_us + wire_us`` (from the
  pump's ``first_commit_at`` stamp) is the same total, and the idle-poll
  tax equals a brute-force scan of every idle poll of the node.

The workload space deliberately mixes eager-sized and rendezvous-sized
messages so the PIO, DMA, aggregation and (under faults) failover paths
are all exercised.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, paper_platform, run_pingpong
from repro.bench.flood import run_flood
from repro.faults.plan import random_plan
from repro.obs.critical_path import CATEGORIES, analyze_session, lifecycle_report

_SIZES = (64, 1024, 8 * 1024, 64 * 1024, 256 * 1024)
_STRATEGIES = ("greedy", "aggreg", "aggreg_multirail")


@st.composite
def workloads(draw):
    """A random traced run: (kind, strategy, size, shape, fault seed)."""
    kind = draw(st.sampled_from(("pingpong", "flood")))
    strategy = draw(st.sampled_from(_STRATEGIES))
    size = draw(st.sampled_from(_SIZES))
    if kind == "pingpong":
        shape = (draw(st.sampled_from((1, 2, 4))), draw(st.integers(1, 2)))
    else:
        shape = (draw(st.integers(3, 6)), draw(st.integers(2, 4)))
    fault_seed = draw(st.one_of(st.none(), st.integers(0, 7)))
    return kind, strategy, size, shape, fault_seed


def _run(kind, strategy, size, shape, fault_seed):
    spec = paper_platform()
    faults = None if fault_seed is None else random_plan(fault_seed, spec)
    session = Session(spec, strategy=strategy, trace=True, faults=faults)
    if kind == "pingpong":
        segments, reps = shape
        run_pingpong(session, size, segments=segments, reps=reps, warmup=1)
    else:
        count, window = shape
        run_flood(session, size, count=count, window=window)
    return session


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_attribution_invariants_hold_for_random_runs(workload):
    session = _run(*workload)
    report = analyze_session(session)
    assert report.attributions, f"no completed sends for {workload}"
    # the bundled invariant check: sum-to-total, connectivity
    assert report.verify() == []
    for attr in report.attributions:
        # chain tiles the lifetime exactly: adjacency is ==, not isclose
        for a, b in zip(attr.segments, attr.segments[1:]):
            assert a.t1 == b.t0
        assert all(seg.category in CATEGORIES for seg in attr.segments)
        assert all(seg.duration > 0.0 for seg in attr.segments)


@given(workloads())
@settings(max_examples=15, deadline=None)
def test_attribution_totals_match_lifecycle_report(workload):
    """The coarse view against the fine one and against brute force: the
    pump's queue/wire split sums to what the spans partition, and the
    index's bisected idle-poll tax is every idle poll's overlap, in span
    order (so not even float slack)."""
    session = _run(*workload)
    rows = lifecycle_report(session)
    assert rows == analyze_session(session).attributions
    for row in rows:
        assert row.submitted_at <= row.first_commit_at <= row.completed_at
        assert abs(row.queue_us + row.wire_us - row.total_us) <= 1e-9 * row.total_us
        assert abs(row.attributed_us - row.total_us) <= max(1e-6, 1e-9 * row.total_us)
        tax: dict = {}
        for span in session.spans.by_name("poll", node=row.node):
            d = min(span.t1, row.completed_at) - max(span.t0, row.submitted_at)
            if span.args["pkts"] == 0 and d > 0.0:
                tax[span.args["rail"]] = tax.get(span.args["rail"], 0.0) + d
        assert row.poll_tax_by_rail == tax
