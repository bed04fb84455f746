"""Unit tests for sweep analysis (peaks, speedups, crossovers)."""

import pytest

from repro.bench.pingpong import PingPongResult
from repro.bench.stats import (
    find_crossover,
    peak,
    speedup_series,
    value_at,
)
from repro.bench.sweep import SweepResult
from repro.util.errors import BenchError


def make_sweep(curves: dict[str, dict[int, float]], metric="bandwidth") -> SweepResult:
    """Build a synthetic sweep from {label: {size: bandwidth_MBps}}."""
    sizes = sorted({s for pts in curves.values() for s in pts})
    sweep = SweepResult(sizes=sizes, curves=list(curves))
    for label, pts in curves.items():
        sweep.results[label] = {
            # one_way derived so bandwidth_MBps == the requested value
            size: PingPongResult(size, 1, 1, size / bw)
            for size, bw in pts.items()
        }
    return sweep


@pytest.fixture()
def sweep():
    return make_sweep(
        {
            "single": {1024: 100.0, 4096: 200.0, 16384: 400.0, 65536: 500.0},
            "multi": {1024: 80.0, 4096: 150.0, 16384: 450.0, 65536: 900.0},
        }
    )


def test_value_at(sweep):
    assert value_at(sweep, "single", 1024, "bandwidth") == pytest.approx(100.0)
    with pytest.raises(BenchError):
        value_at(sweep, "single", 12345, "bandwidth")


def test_peak_bandwidth(sweep):
    assert peak(sweep, "multi", "bandwidth") == (65536, pytest.approx(900.0))


def test_peak_latency_is_minimum(sweep):
    size, v = peak(sweep, "single", "latency")
    assert size == 1024  # smallest message has the lowest one-way time
    assert v == pytest.approx(1024 / 100.0)


def test_peak_unknown_curve(sweep):
    with pytest.raises(BenchError):
        peak(sweep, "nope")


def test_speedup_series(sweep):
    series = dict(speedup_series(sweep, "multi", "single", "bandwidth"))
    assert series[1024] == pytest.approx(0.8)
    assert series[65536] == pytest.approx(1.8)


def test_speedup_latency_direction(sweep):
    series = dict(speedup_series(sweep, "multi", "single", "latency"))
    # multi has lower bandwidth at 1K -> higher latency -> gain < 1
    assert series[1024] < 1.0


def test_find_crossover(sweep):
    assert find_crossover(sweep, "multi", "single", "bandwidth") == 16384


def test_find_crossover_with_margin(sweep):
    assert find_crossover(sweep, "multi", "single", "bandwidth", margin=1.5) == 65536


def test_find_crossover_never():
    sweep = make_sweep({"a": {1: 10.0, 2: 10.0}, "b": {1: 20.0, 2: 20.0}})
    assert find_crossover(sweep, "a", "b") is None


def test_crossover_requires_durable_win():
    """A transient win must not count as a crossover."""
    sweep = make_sweep(
        {
            "a": {1: 30.0, 2: 10.0, 4: 30.0},
            "b": {1: 20.0, 2: 20.0, 4: 20.0},
        }
    )
    assert find_crossover(sweep, "a", "b") == 4


def test_no_common_sizes():
    sweep = make_sweep({"a": {1: 10.0}, "b": {2: 20.0}})
    with pytest.raises(BenchError):
        speedup_series(sweep, "a", "b")
