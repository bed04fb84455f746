"""Laws of the batched histogram.

:class:`~repro.obs.instruments.Histogram` takes an observation as one list
append and folds each batch into its buckets with C-level calls.  The
oracle is the per-value histogram it replaced (:class:`Reference`, below):
for any sequence of observations and any split of it into batches — by
``observe``, by the direct append a hot path makes, by an explicit
``fold`` or by a reader — every reading is the reference's, bit for bit:
``counts``, ``count``, ``total`` (the same left-to-right float sum, not
``sum()``, which compensates on 3.12), the snapshot's ``min`` / ``max``
(the first of equal extremes: ``1`` vs ``1.0``, ``0.0`` vs ``-0.0``),
the rest of ``snapshot`` and ``merge_inplace``.

A NaN has no bucket (the reference put it in the first one and let it
poison ``total`` and, arriving first, both extremes): the batched
histogram refuses it at the fold with a ``ValueError`` naming the
histogram, counts nothing of that batch, and refuses every later fold.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.instruments import FOLD_AT, Histogram
from repro.obs.metrics import SCHEMA, MetricsRegistry

EDGE_SETS = (
    SCHEMA["engine.commit.latency_us"].buckets,
    SCHEMA["engine.window.depth"].buckets,
    (1.0,),
    (0.0, 10.0, 20.0),
)
SPECIAL = (0.0, -0.0, 1, 1.0, -1, 1e16, -1e16, 1e-300, math.inf, -math.inf, 2**62)


class Reference:
    """The per-value histogram: one bisect, one add, two compares each."""

    def __init__(self, edges):
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = self.vmax = None

    def observe(self, value):
        from bisect import bisect_left

        self.counts[bisect_left(self.edges, value)] += 1
        self.total += value
        if self.count:
            if value < self.vmin:
                self.vmin = value
            elif value > self.vmax:
                self.vmax = value
        else:
            self.vmin = self.vmax = value
        self.count += 1

    def merge(self, other):
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        for v in (other.vmin, other.vmax):
            if v is not None:
                if self.vmin is None or v < self.vmin:
                    self.vmin = v
                if self.vmax is None or v > self.vmax:
                    self.vmax = v


def bits(x):
    """A number as its type and exact value (a float by its hex, which
    tells ``-0.0`` from ``0.0``)."""
    return (type(x), x.hex() if isinstance(x, float) else x)


def assert_same(hist, ref):
    assert hist.counts == ref.counts
    assert hist.count == ref.count
    assert bits(hist.total) == bits(ref.total)
    snap = hist.snapshot()
    assert (snap["min"] is None) == (ref.vmin is None)
    if ref.vmin is not None:
        assert bits(snap["min"]) == bits(ref.vmin)
        assert bits(snap["max"]) == bits(ref.vmax)
    assert snap["counts"] == ref.counts and snap["count"] == ref.count
    assert bits(snap["total"]) == bits(ref.total)
    assert snap["edges"] == list(ref.edges)


def values(edges):
    return st.lists(
        st.one_of(
            st.sampled_from(edges + SPECIAL),
            st.integers(-(2**62), 2**62),
            st.floats(allow_nan=False, width=64),
            st.floats(-1e3, 1e6, allow_nan=False),
        ),
        max_size=3 * FOLD_AT,
    )


@st.composite
def observations(draw):
    """``(edges, values, how)``: ``how[i]`` says how value ``i`` arrives —
    ``observe``, a direct append (the pump's way), or either followed by
    an explicit ``fold``."""
    edges = draw(st.sampled_from(EDGE_SETS))
    vals = draw(values(edges))
    how = draw(st.lists(st.integers(0, 3), min_size=len(vals), max_size=len(vals)))
    return edges, vals, how


def feed(hist, vals, how):
    for value, h in zip(vals, how):
        if h & 1:
            hist.observe(value)
        else:  # a hot path's append: it folds once the batch is full
            hist.pending.append(value)
            if len(hist.pending) >= FOLD_AT:
                hist.fold()
        if h & 2:
            hist.fold()
    assert len(hist.pending) < FOLD_AT or not vals


@settings(max_examples=150, deadline=None)
@given(observations())
def test_any_split_into_batches_reads_as_the_per_value_histogram(case):
    edges, vals, how = case
    hist, ref = Histogram("t", edges), Reference(edges)
    feed(hist, vals, how)
    for v in vals:
        ref.observe(v)
    assert_same(hist, ref)
    # reading folded everything; more observations fold onto that state
    feed(hist, vals[::-1], how)
    for v in vals[::-1]:
        ref.observe(v)
    assert_same(hist, ref)


@settings(max_examples=100, deadline=None)
@given(observations(), st.integers(0, 3 * FOLD_AT), st.integers(0, 3 * FOLD_AT))
def test_merge_after_a_partial_batch_is_the_reference_merge(case, cut_a, cut_b):
    """Both sides may hold unfolded values when they merge."""
    edges, vals, how = case
    a, b = Histogram("t", edges), Histogram("t", edges)
    ra, rb = Reference(edges), Reference(edges)
    feed(a, vals[:cut_a], how)
    feed(b, vals[cut_b:], how[cut_b:])
    for v in vals[:cut_a]:
        ra.observe(v)
    for v in vals[cut_b:]:
        rb.observe(v)
    assert a.merge_inplace(b) is a
    ra.merge(rb)
    assert_same(a, ra)
    assert_same(b, rb)  # the source is only folded


def test_merge_through_the_registry_folds_both_sides():
    ra, rb = MetricsRegistry(), MetricsRegistry()
    ha, hb = ra.histogram("engine.window.depth"), rb.histogram("engine.window.depth")
    ref = Reference(ha.edges)
    for v in (3, 0.5, 70.0):
        ha.observe(v)
        ref.observe(v)
    other = Reference(ha.edges)
    for v in (-1.0, 2, 2.0):
        hb.pending.append(v)  # unfolded when the merge comes
        other.observe(v)
    ra.merge_inplace(rb)
    ref.merge(other)
    assert_same(ha, ref)


def test_the_total_is_the_left_to_right_sum():
    """``sum()`` compensates on 3.12 (it would say 1.0); the reference's
    ``+=`` chain says 0.0, and so does the fold."""
    hist, ref = Histogram("t", (1.0,)), Reference((1.0,))
    for v in (1e16, 1.0, -1e16):
        hist.observe(v)
        ref.observe(v)
    assert bits(hist.total) == bits(ref.total) == bits(0.0)


def test_first_of_equal_extremes_stays():
    hist = Histogram("t", (1.0,))
    for v in (1, 1.0, 0.0, -0.0):
        hist.pending.append(v)
    hist.fold()
    snap = hist.snapshot()
    assert bits(snap["max"]) == bits(1) and bits(snap["min"]) == bits(0.0)
    hist.observe(-0.0)
    hist.observe(1.0)
    snap = hist.snapshot()
    assert bits(snap["max"]) == bits(1) and bits(snap["min"]) == bits(0.0)


def test_a_full_batch_folds_itself():
    hist = Histogram("t", (1.0,))
    for v in range(FOLD_AT - 1):
        hist.observe(v)
    assert len(hist.pending) == FOLD_AT - 1
    hist.observe(0.5)
    assert hist.pending == [] and hist._count == FOLD_AT


def test_a_nan_observation_is_refused_at_the_fold():
    hist = Histogram("engine.commit.latency_us", (1.0,), labels=(("rail", "r0"),))
    hist.observe(0.5)
    hist.fold()
    hist.observe(2.0)
    hist.observe(math.nan)
    with pytest.raises(ValueError, match=r"engine\.commit\.latency_us\{rail=r0\}: NaN"):
        hist.count
    with pytest.raises(ValueError, match="NaN observation"):
        hist.snapshot()
    # nothing of the poisoned batch was counted
    assert hist._count == 1 and hist._counts == [1, 0]
    # infinities are numbers: inf - inf makes a NaN total, not a refusal
    inf = Histogram("t", (1.0,))
    for v in (math.inf, -math.inf):
        inf.observe(v)
    assert math.isnan(inf.total) and inf.counts == [1, 1]
