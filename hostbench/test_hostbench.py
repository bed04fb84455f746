"""Smoke and invariant tests of the benchmark itself.

Run with ``python -m pytest hostbench -q`` (not part of the tier-1
``testpaths``).  Workloads run at ``scale=0.02`` in-process; two tests go
through the command line the driver uses.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from hostbench import ROOT, metrics, worker
from hostbench.tracer import LAYERS, HostTracer
from hostbench.workloads import WORKLOADS, PassResult, Workload

SCALE = 0.02


def _ctx(name: str, seed: int = 1):
    workload = WORKLOADS[name]
    ctx, _env = worker.set_up(workload, seed, SCALE)
    return workload, ctx


# --------------------------------------------------------------------- #
# the contract file
# --------------------------------------------------------------------- #
def test_benchmark_json_is_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_spec()


def test_metric_name_grammar():
    spec = metrics.benchmark_spec()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    names += [n for n, *_ in metrics.END_TO_END]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    listed = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(listed) == len(set(listed))
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke(name):
    workload, ctx = _ctx(name)
    out = worker.timed_passes(workload, ctx, seconds=0.0)
    assert len(out["passes"]) == worker.MIN_PASSES
    assert out["notes"] == []
    for p in out["passes"]:
        assert p["attempted"] == ctx.ops > 0
        assert p["failed"] == 0
        assert p["sim_us"] == out["passes"][0]["sim_us"] > 0
        assert p["events"] == out["passes"][0]["events"] > 0


def test_seed_moves_floods_but_not_figures():
    def sim_us(name, seed):
        workload, ctx = _ctx(name, seed)
        return workload.run_pass(ctx, None).sim_us

    assert sim_us("flood_eager", 1) != sim_us("flood_eager", 2)
    assert sim_us("flood_rdv", 1) != sim_us("flood_rdv", 2)
    assert sim_us("figures", 1) == sim_us("figures", 2)
    assert sim_us("flood_eager", 1) == sim_us("flood_eager", 1)


class _Ctx:
    ops = 10


def _workload(run_pass) -> Workload:
    return Workload("broken", "op", "test double", lambda s, k: _Ctx(), None, run_pass)


def test_failures_are_counted_not_fatal():
    calls = []

    def run_pass(ctx, observe):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("deadlock")  # a pass that dies fails all its ops
        return PassResult(ctx.ops, 2 if len(calls) == 2 else 0, 5.0, 7)

    out = worker.timed_passes(_workload(run_pass), _Ctx(), seconds=0.0)
    assert [p["failed"] for p in out["passes"]] == [2, 10, 0]
    assert any("deadlock" in n for n in out["notes"])
    record = {**out, "peak_rss_mb": 1.0}
    e2e = metrics.end_to_end(record, [0.1])
    assert (e2e["attempted"], e2e["failed"]) == (30, 12)
    assert e2e["fail_ratio"] == pytest.approx(0.4)


def test_simulated_drift_fails_the_pass():
    sim_us = iter([5.0, 5.0, 6.0, 5.0])
    out = worker.timed_passes(
        _workload(lambda ctx, observe: PassResult(ctx.ops, 0, next(sim_us), 7)),
        _Ctx(), seconds=0.0,
    )
    assert [p["failed"] for p in out["passes"]] == [0, 10, 0]
    assert any("drifted" in n for n in out["notes"])


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
def test_shares_sum_to_the_traced_total():
    from repro.core.session import Session

    before = vars(Session)["run_until_idle"]
    workload, ctx = _ctx("flood_rdv")
    tracer = HostTracer()
    trace = worker.traced_pass(workload, ctx, tracer=tracer)
    assert vars(Session)["run_until_idle"] is before  # wrappers are gone again
    assert trace["ok"] and not trace["missing"]
    layers = trace["layers"]
    assert set(LAYERS) < set(layers)
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(
        trace["total_s"], rel=1e-9
    )
    assert sum(row["share"] for row in layers.values()) == pytest.approx(1.0)
    assert layers["sim.flows"]["calls"] > 0 and layers["mpi"]["calls"] == 0
    # spans nest: every child lies inside its parent
    assert trace["spans"] == sum(tracer.calls) - 1 > 0
    for sid, parent in enumerate(tracer.span_parent):
        assert tracer.span_start[sid] <= tracer.span_end[sid]
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[sid]
            assert tracer.span_end[sid] <= tracer.span_end[parent]


def test_missing_wrap_targets_read_null():
    targets = [
        ("repro.core.session.Session.run_until_idle", "sim.engine", "call"),
        ("repro.core.scheduler.NodeEngine._renamed_away", "core.scheduler", "call"),
        ("repro.deleted_module.Thing.method", "mpi", "call"),
    ]
    workload, ctx = _ctx("flood_eager")
    tracer = HostTracer(targets)
    trace = worker.traced_pass(workload, ctx, tracer=tracer)
    assert trace["ok"]
    assert set(trace["missing"]) == {t[0] for t in targets[1:]}
    assert trace["layers"]["core.scheduler"] is None
    assert trace["layers"]["mpi"] is None
    assert trace["layers"]["sim.engine"]["calls"] == 1
    # and the metric arithmetic carries the nulls through
    record = {
        **worker.timed_passes(workload, ctx, 0.0), "peak_rss_mb": 1.0,
        "ops_per_pass": ctx.ops, "trace": trace, "probe_events_per_s": None,
    }
    values = metrics.per_layer(record, metrics.end_to_end(record, [0.1]), {})
    assert values["core.scheduler.share"] is None
    assert values["stack_efficiency"] is None
    assert values["sim.engine.calls"] == 1


# --------------------------------------------------------------------- #
# the command line the driver uses
# --------------------------------------------------------------------- #
def _run_cli(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "hostbench", "run", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(trace):
    line = _run_cli(
        "--workload", "flood_eager", "--seed", "3", "--seconds", "0.1",
        "--scale", str(SCALE), "--trace", str(trace),
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    spec = metrics.benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
