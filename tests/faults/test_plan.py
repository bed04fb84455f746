"""Tests for FaultPlan / FaultEvent: validation, serialization, generation."""

import pytest

from repro import FaultEvent, FaultPlan, paper_platform, random_plan
from repro.util.errors import ConfigError


def test_event_validation_rejects_nonsense():
    with pytest.raises(ConfigError, match="unknown fault kind"):
        FaultEvent("explode", 1.0, "myri10g")
    with pytest.raises(ConfigError, match="negative time"):
        FaultEvent("down", -1.0, "myri10g", duration_us=5.0)
    with pytest.raises(ConfigError, match="duration"):
        FaultEvent("down", 1.0, "myri10g")
    with pytest.raises(ConfigError, match="factor"):
        FaultEvent("degrade", 1.0, "myri10g", duration_us=5.0, factor=1.5)
    with pytest.raises(ConfigError, match="lat_factor"):
        FaultEvent("degrade", 1.0, "myri10g", duration_us=5.0, factor=0.5, lat_factor=0.5)
    with pytest.raises(ConfigError, match="count"):
        FaultEvent("drop", 1.0, "myri10g", count=0)
    with pytest.raises(ConfigError, match="period_us"):
        FaultEvent("flap", 1.0, "myri10g", duration_us=10.0, period_us=5.0, cycles=2)


def test_plan_sorts_events_and_reports_rails():
    plan = FaultPlan(
        [
            FaultEvent("down", 50.0, "b", duration_us=5.0),
            FaultEvent("drop", 10.0, "a", count=1),
        ]
    )
    assert [e.at_us for e in plan] == [10.0, 50.0]
    assert plan.rails() == {"a", "b"}
    assert len(plan) == 2 and not plan.empty
    assert FaultPlan().empty


def test_json_roundtrip_is_identity(tmp_path):
    plan = FaultPlan(
        [
            FaultEvent("down", 500.0, "myri10g", duration_us=400.0),
            FaultEvent("degrade", 100.0, "qsnet2", duration_us=2000.0, factor=0.5),
            FaultEvent("drop", 250.0, "myri10g", count=2),
            FaultEvent("dup", 300.0, "qsnet2", count=1),
            FaultEvent("flap", 800.0, "myri10g", duration_us=50.0, period_us=200.0, cycles=3),
        ],
        seed=42,
        detect_us=7.5,
    )
    back = FaultPlan.load(plan.save(str(tmp_path / "plan.json")))
    assert back == plan
    assert back.seed == 42 and back.detect_us == 7.5


def test_default_detect_us_omitted_from_json(tmp_path):
    plan = FaultPlan([FaultEvent("drop", 1.0, "r", count=1)])
    assert "detect_us" not in plan.to_dict()
    back = FaultPlan.load(plan.save(str(tmp_path / "plan.json")))
    assert back.detect_us == FaultPlan.DEFAULT_DETECT_US


def test_unknown_json_fields_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown fault-event fields"):
        FaultPlan.from_dict(
            {"events": [{"kind": "drop", "at_us": 1.0, "rail": "r", "count": 1, "wat": 3}]}
        )
    path = tmp_path / "plan.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="plan.json: invalid JSON"):
        FaultPlan.load(str(path))


def test_save_load_roundtrip(tmp_path):
    plan = FaultPlan([FaultEvent("down", 5.0, "myri10g", duration_us=3.0)], seed=7)
    path = plan.save(str(tmp_path / "plan.json"))
    assert FaultPlan.load(path) == plan


def test_validate_against_platform():
    plan = FaultPlan([FaultEvent("down", 5.0, "nope", duration_us=3.0)])
    with pytest.raises(ConfigError, match="unknown rail"):
        plan.validate(paper_platform())
    FaultPlan([FaultEvent("down", 5.0, "myri10g", duration_us=3.0)]).validate(
        paper_platform()
    )


def test_flap_normalizes_to_down_cycles():
    plan = FaultPlan(
        [FaultEvent("flap", 100.0, "r", duration_us=10.0, period_us=50.0, cycles=3)]
    )
    downs = list(plan.normalized())
    assert [e.kind for e in downs] == ["down"] * 3
    assert [e.at_us for e in downs] == [100.0, 150.0, 200.0]
    assert all(e.duration_us == 10.0 for e in downs)


def test_random_plan_is_deterministic_per_seed():
    spec = paper_platform()
    assert random_plan(3, spec) == random_plan(3, spec)
    assert random_plan(3, spec) != random_plan(4, spec)
    assert random_plan(3, spec).seed == 3


@pytest.mark.parametrize("seed", range(25))
def test_random_plan_outages_are_finite_and_disjoint(seed):
    """The chaos safety net: at most one rail down at any instant."""
    spec = paper_platform()
    plan = random_plan(seed, spec, horizon_us=5000.0)
    plan.validate(spec)
    windows = sorted(
        (e.at_us, e.at_us + e.duration_us)
        for e in plan.normalized()
        if e.kind == "down"
    )
    for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
        assert a1 <= b0, f"overlapping outages {a0, a1} and {b0, b1}"
    for _start, end in windows:
        assert end < float("inf")
