"""Unit tests for the sweep machinery."""

import pytest

from repro import Session
from repro.bench.sweep import Curve, collect_sweep, measure_point, sweep_points, sweep_table
from repro.util.errors import BenchError


def run_sweep(curves, sizes, reps=3, warmup=1):
    """The three steps every figure runs, in one process."""
    points = sweep_points(curves, sizes)
    measured = [measure_point(curve, size, reps, warmup) for curve, size in points]
    return collect_sweep(curves, sizes, points, measured)


def curves(mx_plat):
    mk = lambda: Session(mx_plat, strategy="single_rail")
    return [Curve("regular", mk, 1), Curve("2-seg", mk, 2)]


def test_sweep_structure(mx_plat):
    sweep = run_sweep(curves(mx_plat), sizes=[64, 256], reps=2)
    assert sweep.sizes == [64, 256]
    assert sweep.curves == ["regular", "2-seg"]
    assert sweep.point("regular", 64).total_size == 64
    lat = sweep.series("regular", "latency")
    bw = sweep.series("regular", "bandwidth")
    assert len(lat) == 2 and all(v > 0 for v in lat)
    assert bw[1] > bw[0]


def test_unknown_metric(mx_plat):
    sweep = run_sweep(curves(mx_plat)[:1], sizes=[64], reps=1)
    with pytest.raises(BenchError):
        sweep.series("regular", "throughput")


def test_ragged_start_for_multisegment_curves(mx_plat):
    """A 2-segment curve cannot run at a 1-byte total; the point is
    skipped, not crashed, and renders as '-' in the table."""
    sweep = run_sweep(curves(mx_plat), sizes=[1, 64], reps=1)
    assert 1 not in sweep.results["2-seg"]
    assert 1 in sweep.results["regular"]
    text = sweep_table(sweep, "latency", title="t").render()
    assert "-" in text.splitlines()[2]


def test_duplicate_labels_rejected(mx_plat):
    mk = lambda: Session(mx_plat)
    with pytest.raises(BenchError):
        run_sweep([Curve("x", mk), Curve("x", mk)], sizes=[64])


def test_empty_inputs_rejected(mx_plat):
    with pytest.raises(BenchError):
        run_sweep([], sizes=[64])
    with pytest.raises(BenchError):
        run_sweep(curves(mx_plat), sizes=[])


def test_sweep_table_layout(mx_plat):
    sweep = run_sweep(curves(mx_plat)[:1], sizes=[1024], reps=1)
    table = sweep_table(sweep, "bandwidth", title="My figure")
    assert table.headers == ["size", "regular (MB/s)"]
    assert table.rows[0][0] == "1K"
