"""Tests for the chaos harness: every strategy survives random fault plans."""

import pytest

from repro.core.strategies.registry import available_strategies
from repro.faults.chaos import (
    ChaosCase,
    ChaosReport,
    chaos_strategies,
    run_case,
    run_chaos,
    save_failing_plans,
)
from repro.faults.plan import FaultPlan
from repro.util.errors import ConfigError


@pytest.mark.parametrize("strategy", sorted(available_strategies()))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_strategy_survives_random_faults(strategy, seed):
    result = run_case(ChaosCase(strategy=strategy, seed=seed))
    assert result["ok"], "\n".join(result["violations"])
    assert result["violations"] == []
    assert result["plan"]["events"], "random plan should inject something"


def test_case_is_deterministic():
    a = run_case(ChaosCase(strategy="aggreg_multirail", seed=5))
    b = run_case(ChaosCase(strategy="aggreg_multirail", seed=5))
    assert a["digest"] == b["digest"]


@pytest.mark.parametrize("strategy", ["split_balance", "greedy", "aggreg_multirail"])
def test_a_saved_plan_replays_bit_identically(tmp_path, strategy):
    """What ``repro chaos --save-failing`` writes is a replay artifact:
    the case run again under the loaded plan is the same run."""
    case = ChaosCase(strategy=strategy, seed=3)
    first = run_case(case)
    path = FaultPlan.from_dict(first["plan"]).save(str(tmp_path / "plan.json"))
    assert run_case(case, plan=FaultPlan.load(path)) == first


def test_chaos_strategies_resolution():
    assert chaos_strategies("all") == sorted(available_strategies())
    assert chaos_strategies("aggreg, greedy") == ["aggreg", "greedy"]
    assert chaos_strategies(["greedy"]) == ["greedy"]
    with pytest.raises(ConfigError, match="unknown strateg"):
        chaos_strategies("nope")


def test_run_chaos_grid_and_report():
    report = run_chaos(seeds=2, strategies="aggreg,single_rail", jobs=1)
    assert len(report.cases) == 4
    assert report.ok
    assert report.failures == []
    summary = report.summary()
    assert "4 cases, 4 passed, 0 failed" in summary


def test_run_chaos_on_case_streams_in_task_order():
    seen = []
    report = run_chaos(
        seeds=2,
        strategies="greedy",
        jobs=1,
        on_case=lambda case, row: seen.append((case.seed, row["ok"])),
    )
    assert [s for s, _ in seen] == [0, 1]
    assert [ok for _, ok in seen] == [c["ok"] for c in report.cases]


def test_chaos_cli_with_live_endpoint(capsys):
    from repro.cli import main

    assert main(["chaos", "--seeds", "1", "--strategies", "greedy", "--serve", "0"]) == 0
    printed = capsys.readouterr().out
    assert "live metrics: http://127.0.0.1:" in printed
    assert "1 cases, 1 passed" in printed


def test_save_failing_plans_writes_replay_artifacts(tmp_path):
    failing = {
        "strategy": "aggreg",
        "seed": 3,
        "ok": False,
        "violations": ["[delivery] message never arrived (peer=1)"],
        "plan": {"events": [{"kind": "drop", "at_us": 1.0, "rail": "r", "count": 1}], "seed": 3},
        "digest": {},
    }
    report = ChaosReport(cases=[failing])
    paths = save_failing_plans(report, str(tmp_path))
    assert len(paths) == 1
    assert paths[0].endswith("failing-plan-aggreg-seed3.json")
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.load(paths[0])
    assert plan.seed == 3 and len(plan) == 1
