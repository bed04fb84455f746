"""Tests for the adaptive degrade-recovery bench suite."""

import json

import pytest

from repro.bench.adaptive import (
    ADAPTIVE_STRATEGIES,
    adaptive_cells,
    adaptive_point,
    run_adaptive_case,
)
from repro.bench.suites import run_suites
from repro.obs.perf import BenchRecorder
from repro.util.errors import BenchError


def test_case_rejects_unknown_strategy_and_bad_reps():
    with pytest.raises(BenchError, match="unknown adaptive bench strategy"):
        run_adaptive_case("quantum")
    with pytest.raises(BenchError, match="reps"):
        run_adaptive_case("feedback", reps=0)


def test_suite_rejects_empty_strategy_list():
    with pytest.raises(BenchError, match="no adaptive strategies"):
        adaptive_cells(strategies=())
    with pytest.raises(BenchError, match="no adaptive strategies"):
        run_suites(BenchRecorder("empty"), {"adaptive": {"strategies": ()}})


def test_feedback_case_is_deterministic_and_never_resamples():
    a = run_adaptive_case("feedback")
    b = run_adaptive_case("feedback")
    assert a.elapsed_us == b.elapsed_us
    assert a.events == b.events
    assert a.steady_share == b.steady_share
    assert a.resamples == 0
    assert 0.0 < a.steady_share < 1.0


def test_suite_records_gateable_points_and_metrics():
    rec = BenchRecorder("adaptive")
    run_suites(rec, {"adaptive": {}})
    points = rec.finish().points
    results = [run_adaptive_case(name) for name in ADAPTIVE_STRATEGIES]
    assert [p["curve"] for p in points] == list(ADAPTIVE_STRATEGIES)
    for point, result in zip(points, results):
        assert point == adaptive_point(result)
        assert point["kind"] == "adaptive"
        assert point["bench"] == "adaptive.degrade_recovery"
        assert point["elapsed_us"] == result.elapsed_us
    assert rec.metrics["adaptive.steady_share.feedback"] > 0.0
    assert rec.metrics["adaptive.resamples.feedback"] == 0.0
    assert "adaptive.switches.tournament" in rec.metrics
    # a suite that is neither engine nor figures carries no probe
    assert all(k.startswith("adaptive.") for k in rec.metrics)


def test_bench_cli_adaptive_flag(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_adaptive.json"
    assert main(["bench", "run", "--adaptive", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "adaptive.degrade_recovery feedback" in printed
    record = json.loads(out.read_text())
    benches = {p["bench"] for p in record["points"]}
    assert benches == {"adaptive.degrade_recovery"}
    assert {p["curve"] for p in record["points"]} == set(ADAPTIVE_STRATEGIES)
