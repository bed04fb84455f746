"""Property tests of sampled span streams (PR 7's core guarantees).

Across random workloads — ping-pong and flood, with and without a random
fault plan — the span stream a run writes must

* **read back losslessly**: what :func:`load_span_stream` reads equals
  what :func:`write_span_stream` wrote, and with sampling off that is
  the in-memory recorder itself, so every exporter and analyzer sees
  the exact same spans;
* **sample coherently and safely**: children are never kept without
  their root, the decision is a pure function of span identity (same
  seed → same sample on a re-run), and the critical-path invariant
  check (:meth:`CriticalPathReport.verify`) returns the same verdict on
  the sampled trace as on the full trace — sampling can thin the span
  set but never fabricate a violation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, paper_platform, run_pingpong
from repro.bench.flood import run_flood
from repro.faults.plan import random_plan
from repro.obs.critical_path import analyze_session
from repro.obs.streaming import (
    SpanSampler,
    load_span_stream,
    sampled_spans,
    write_span_stream,
)

_SIZES = (64, 1024, 8 * 1024, 64 * 1024)
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


def _run(workload):
    kind, strategy, size, shape, fault_seed = workload
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


def _dicts(spans):
    return [s.to_dict() for s in spans]


@given(workloads())
@settings(max_examples=15, deadline=None)
def test_streamed_replay_bit_identical_to_unbounded(tmp_path_factory, workload):
    full = _run(workload).spans
    path = str(tmp_path_factory.mktemp("stream") / "s.jsonl")
    write_span_stream(path, sampled_spans(full.spans, SpanSampler()), SpanSampler())
    assert _dicts(load_span_stream(path)) == _dicts(full)


@given(
    workloads(),
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(st.none(), st.integers(0, 400)),
    st.integers(0, 99),
)
@settings(max_examples=15, deadline=None)
def test_a_stream_reads_back_to_what_was_written(
    tmp_path_factory, workload, rate, head, seed
):
    sampler = SpanSampler(rate=rate, head=head, seed=seed)
    kept = sampled_spans(_run(workload).spans.spans, sampler)
    path = str(tmp_path_factory.mktemp("stream") / "s.jsonl")
    write_span_stream(path, kept, sampler)
    assert _dicts(load_span_stream(path)) == _dicts(kept)


@given(
    workloads(),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(0, 99),
)
@settings(max_examples=20, deadline=None)
def test_sampling_is_coherent_and_deterministic(workload, rate, seed):
    kept = sampled_spans(_run(workload).spans.spans, SpanSampler(rate=rate, seed=seed))
    sids = {s.sid for s in kept}
    # coherent subtrees: no kept span whose parent was dropped
    for span in kept:
        if span.parent is not None:
            assert span.parent in sids
    # pure function of identity: a second run keeps the same sample
    again = sampled_spans(_run(workload).spans.spans, SpanSampler(rate=rate, seed=seed))
    assert _dicts(again) == _dicts(kept)


@given(workloads(), st.floats(min_value=0.1, max_value=0.9), st.integers(0, 9))
@settings(max_examples=15, deadline=None)
def test_sampled_trace_verifies_like_full_trace(workload, rate, seed):
    """critical_path.verify() must agree on full vs sampled spans: the
    attribution invariants hold for any span subset, so a clean full
    trace implies a clean sampled one (and vice versa)."""
    session = _run(workload)
    full_verdict = analyze_session(session).verify()
    session.spans.spans = sampled_spans(
        session.spans.spans, SpanSampler(rate=rate, seed=seed)
    )
    sampled_verdict = analyze_session(session).verify()
    assert sampled_verdict == full_verdict == []
