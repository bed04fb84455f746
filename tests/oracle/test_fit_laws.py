"""The sampling fit against closed forms and laws.

Residents of ``tests/oracle/`` use no recorded run: what they expect is
derived here, from a formula or from a law the model must obey, so no
re-baseline can silence them.  ``RailSample.fit`` is the least-squares
line ``t = overhead_us + size / bw_MBps`` through the sampled points.
"""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import DEFAULT_SAMPLE_SIZES, RailSample

REL = 1e-12


@st.composite
def sampled_lines(draw):
    """Points of a rail-like line with up to 1 us of noise per point: far
    enough from a zero intercept (clamped) and well enough conditioned
    that the laws below hold to ``REL``."""
    overhead = draw(st.floats(min_value=10.0, max_value=100.0))
    bw = draw(st.floats(min_value=500.0, max_value=5000.0))
    sizes = draw(
        st.lists(
            st.sampled_from([64 * 1024 << i for i in range(7)]),  # 64K .. 4M
            min_size=3, unique=True,
        )
    )
    noise = st.floats(min_value=-1.0, max_value=1.0)
    return [(s, overhead + s / bw + draw(noise)) for s in sizes]


@pytest.mark.parametrize("overhead", [0.0, 8.0, 11.5])
@pytest.mark.parametrize("bw", [512.0, 1024.0, 4096.0])
def test_exact_line_is_recovered_exactly(overhead, bw):
    """With ``overhead``, ``1/bw`` and the sizes exactly representable
    every intermediate of the closed form is exact, so the answer is."""
    points = [(s, overhead + s / bw) for s in DEFAULT_SAMPLE_SIZES]
    sample = RailSample.fit("r", points)
    assert sample.overhead_us == overhead
    assert sample.bw_MBps == bw


@given(data=st.data(), points=sampled_lines())
@settings(max_examples=200, deadline=None)
def test_point_order_does_not_matter_bit_for_bit(data, points):
    """What ``fsum`` buys: the fitted floats are a function of the *set*
    of points."""
    shuffled = data.draw(st.permutations(points))
    a, b = RailSample.fit("r", points), RailSample.fit("r", shuffled)
    assert (a.overhead_us, a.bw_MBps) == (b.overhead_us, b.bw_MBps)


@given(
    points=sampled_lines(),
    k=st.integers(min_value=2, max_value=64),
    f=st.floats(min_value=0.25, max_value=16.0),
    c=st.floats(min_value=0.0, max_value=1000.0),
)
@settings(max_examples=200, deadline=None)
def test_scaling_laws(points, k, f, c):
    base = RailSample.fit("r", points)
    wider = RailSample.fit("r", [(s * k, t) for s, t in points])
    assert wider.bw_MBps == pytest.approx(base.bw_MBps * k, rel=REL)
    assert wider.overhead_us == pytest.approx(base.overhead_us, rel=REL)
    slower = RailSample.fit("r", [(s, t * f) for s, t in points])
    assert slower.bw_MBps == pytest.approx(base.bw_MBps / f, rel=REL)
    assert slower.overhead_us == pytest.approx(base.overhead_us * f, rel=REL)
    later = RailSample.fit("r", [(s, t + c) for s, t in points])
    assert later.bw_MBps == pytest.approx(base.bw_MBps, rel=REL)
    assert later.overhead_us == pytest.approx(base.overhead_us + c, rel=REL)


@given(points=sampled_lines())
@settings(max_examples=200, deadline=None)
def test_agrees_with_the_stdlib_regression(points):
    """``statistics.linear_regression`` is an independent implementation
    (``src/`` does not use it: through ``fractions`` its import costs more
    than the whole fit)."""
    slope, intercept = statistics.linear_regression(
        [s for s, _ in points], [t for _, t in points]
    )
    sample = RailSample.fit("r", points)
    assert sample.bw_MBps == pytest.approx(1.0 / slope, rel=1e-9)
    assert sample.overhead_us == pytest.approx(intercept, rel=1e-9)
