"""Property-based tests for units and sampling fits."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import RailSample
from repro.util.units import bandwidth_MBps, format_size, geometric_sizes, parse_size


@given(st.integers(min_value=0, max_value=2**40))
def test_format_parse_roundtrip(n):
    assert parse_size(format_size(n)) == n


@given(st.integers(min_value=1, max_value=2**20), st.integers(min_value=2, max_value=10))
def test_geometric_sizes_structure(start, factor):
    sizes = geometric_sizes(start, start * factor**4, factor=factor)
    assert sizes[0] == start
    assert all(b == a * factor for a, b in zip(sizes, sizes[1:]))


@given(
    st.integers(min_value=1, max_value=10**9),
    st.floats(min_value=1e-3, max_value=1e9),
)
def test_bandwidth_identity(nbytes, elapsed):
    bw = bandwidth_MBps(nbytes, elapsed)
    assert math.isclose(bw * elapsed, nbytes, rel_tol=1e-9)


@given(
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=10.0, max_value=5000.0),
    st.lists(
        st.integers(min_value=1024, max_value=16 * 1024 * 1024),
        min_size=2,
        max_size=8,
        unique=True,
    ),
)
@settings(max_examples=200, deadline=None)
def test_rail_sample_fit_recovers_linear_model(overhead, bw, sizes):
    """Fitting exact linear data recovers (overhead, bw) to float precision."""
    points = [(s, overhead + s / bw) for s in sorted(sizes)]
    sample = RailSample.fit("r", points)
    assert math.isclose(sample.bw_MBps, bw, rel_tol=1e-6)
    assert math.isclose(sample.overhead_us, overhead, rel_tol=1e-4, abs_tol=1e-6)
    for s, t in points:
        assert math.isclose(sample.overhead_us + s / sample.bw_MBps, t, rel_tol=1e-9, abs_tol=1e-6)
