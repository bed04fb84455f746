"""Determinism and plumbing tests for the one fan-out and its users.

The contract under test: dealing figure points, bench-suite cells or
chaos cases to worker processes produces results **bit-identical** to a
serial run — same floats, same record layout — because every unit is an
isolated deterministic simulator and the merge is ordered.
"""

import json
import pickle

import pytest

from repro import paper_platform, sample_rails
from repro.bench.figures import PointTask, figure_plan, run_plan, run_point
from repro.bench.suites import SUITES, run_suites
from repro.bench.sweep import sweep_points
from repro.obs.perf import BenchRecorder
from repro.obs.runner import resolve_jobs
from repro.util.errors import BenchError

SIZES = [4, 1024, 65536]


def _points(result):
    return {
        (label, size): (pp.one_way_us, pp.bandwidth_MBps)
        for label in result.sweep.curves
        for size, pp in result.sweep.results[label].items()
    }


@pytest.mark.parametrize("figure_id", ["fig4a", "fig7"])
def test_parallel_sweep_is_bit_identical(figure_id):
    plan = figure_plan(figure_id, sizes=SIZES)
    serial = run_plan(plan, reps=2, jobs=1)
    parallel = run_plan(plan, reps=2, jobs=4)
    assert serial.sweep.sizes == parallel.sweep.sizes
    assert serial.sweep.curves == parallel.sweep.curves
    assert _points(serial) == _points(parallel)


#: all four suites, small: 2 engine points, fig4a, three P=16 cells, two
#: adaptive cells
SMALL_SELECTION = {
    "engine": {},
    "figures": {"figures": ["fig4a"], "reps": 1},
    "scale": {"points": [16]},
    "adaptive": {},
}


def test_record_results_identical_serial_vs_parallel():
    """One record holding every suite: ``jobs`` changes neither the points
    (order and every field) nor the metrics."""
    records = {}
    for jobs in (1, 3):
        rec = BenchRecorder(f"jobs{jobs}")
        run_suites(rec, SMALL_SELECTION, jobs=jobs)
        records[jobs] = rec.finish()
    assert records[1].points == records[3].points
    assert records[1].metrics == records[3].metrics
    benches = [p["bench"] for p in records[1].points]
    assert benches[:2] == [
        "engine.pingpong_1MB_greedy", "engine.pingpong_64B_aggreg_multirail",
    ]
    # fixed suite order: engine, figures, scale, adaptive
    assert list(dict.fromkeys(b.split(".")[0] for b in benches)) == [
        "engine", "fig4a", "scale", "adaptive",
    ]
    assert "scale.events.nic_barrier.P16" in records[1].metrics
    assert "adaptive.resamples.feedback" in records[1].metrics
    assert any(k.startswith("engine.poll.idle_us") for k in records[1].metrics)


def test_on_cell_reports_lines_and_progress_in_task_order():
    calls = []
    rec = BenchRecorder("cb")
    run_suites(
        rec,
        {"engine": {}, "scale": {"algos": ["nic_barrier"], "points": [16]}},
        jobs=2,
        on_cell=lambda *call: calls.append(call),
    )
    assert calls[:2] == [("engine", [], 0, 2), ("scale", [], 0, 1)]
    assert calls[2:4] == [
        ("engine", ["running engine points ..."], 1, 2),
        ("engine", [], 2, 2),
    ]
    suite, lines, done, total = calls[4]
    assert (suite, done, total) == ("scale", 1, 1)
    assert lines[0] == "running collectives scaling suite ..."
    assert lines[1].startswith("  scale.nic_barrier P16: ")
    assert len(calls) == 5 and len(rec) == 3


def test_probe_attached_only_with_engine_or_figures():
    rec = BenchRecorder("scale-only")
    run_suites(rec, {"scale": {"algos": ["nic_barrier"], "points": [16]}})
    assert set(rec.metrics) == {"scale.events.nic_barrier.P16"}


def test_unknown_suite_rejected():
    with pytest.raises(BenchError, match="unknown suites"):
        run_suites(BenchRecorder("x"), {"warp": {}})


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_cells_pickle_and_run_is_module_level(name):
    """What lets ``REPRO_MP_START=spawn``/``forkserver`` work: a cell
    travels by value and the worker body is importable by name."""
    suite = SUITES[name]
    cells = list(suite.cells(**SMALL_SELECTION[name]))
    assert cells and pickle.loads(pickle.dumps(cells)) == cells
    assert pickle.loads(pickle.dumps(suite.run)) is suite.run
    assert "<locals>" not in suite.run.__qualname__
    assert "<lambda>" not in suite.run.__qualname__


def test_run_point_matches_in_process_pingpong():
    from repro.bench.pingpong import run_pingpong

    plan = figure_plan("fig4a")
    curve = plan.curves[0]
    row = run_point(PointTask("fig4a", curve.label, 1024, 2, 1))
    direct = run_pingpong(
        curve.session_factory(), 1024, segments=curve.segments, reps=2, warmup=1
    )
    assert row["one_way_us"] == direct.one_way_us
    assert row["segments"] == curve.segments
    # the same point through the plan runner, in-process and over workers
    for jobs in (1, 2):
        result = run_plan(figure_plan("fig4a", sizes=[1024]), reps=2, jobs=jobs)
        assert result.sweep.point(curve.label, 1024) == direct


def test_ragged_sizes_skip_like_serial():
    # size 2 cannot form 4-seg messages: both paths must skip identically
    plan = figure_plan("fig5a", sizes=[2, 64])
    serial = run_plan(plan, reps=1, jobs=1)
    parallel = run_plan(plan, reps=1, jobs=2)
    assert serial.sweep.sizes == parallel.sweep.sizes == [64]
    assert _points(serial) == _points(parallel)
    # both walk the points the shared enumerator names
    assert sorted(_points(serial)) == sorted(
        (curve.label, size) for curve, size in sweep_points(plan.curves, plan.sizes)
    )


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1  # 0 = all cores
    with pytest.raises(BenchError):
        resolve_jobs(-1)


def test_non_portable_plan_runs_in_process_with_its_own_samples(monkeypatch):
    table = sample_rails(paper_platform())
    plan = figure_plan("fig7", sizes=[1024], samples=table)
    assert not plan.portable
    serial = run_plan(plan, reps=1, jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a non-portable plan must not reach a worker pool")

    monkeypatch.setattr("repro.obs.runner._mp_context", no_pool)
    result = run_plan(plan, reps=1, jobs=2)  # stays in this process
    assert _points(result) == _points(serial)
    # default sampling is deterministic, so the portable plan agrees too
    assert _points(result) == _points(run_plan(figure_plan("fig7", sizes=[1024]), reps=1))


def test_unknown_curve_label_rejected():
    with pytest.raises(BenchError):
        run_point(PointTask("fig4a", "no such curve", 64, 1, 1))


def test_chaos_parallel_is_bit_identical_to_serial():
    """Same contract as the sweep runner, for the chaos harness: the same
    seeds and FaultPlans produce bit-identical case digests (final sim
    time, payload CRCs, full metric snapshots) whether cases run serially
    or fanned over worker processes."""
    from repro.faults.chaos import run_chaos

    kwargs = dict(seeds=[0, 1, 2], strategies="aggreg,aggreg_multirail")
    serial = run_chaos(jobs=1, **kwargs)
    parallel = run_chaos(jobs=2, **kwargs)
    assert len(serial.cases) == len(parallel.cases) == 6
    assert serial.ok and parallel.ok
    for s_case, p_case in zip(serial.cases, parallel.cases):
        assert s_case == p_case  # full dict: plan, violations, digest


def test_cli_bench_run_jobs_smoke(tmp_path):
    from repro.cli import main

    out = tmp_path / "BENCH_jobs.json"
    rc = main(
        [
            "bench", "run",
            "--figures", "fig4a",
            "--reps", "1",
            "--jobs", "2",
            "-o", str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["points"]
