"""Unit tests for config loading."""

import json

import pytest

from repro.hardware.presets import MYRI_10G, paper_platform
from repro.hardware.spec import TopologySpec
from repro.util.config import platform_from_dict, platform_from_json
from repro.util.errors import ConfigError


def test_full_rail_dicts():
    spec = platform_from_dict(
        {
            "n_nodes": 3,
            "rails": [MYRI_10G.to_dict()],
            "host": {"memcpy_MBps": 5000.0},
        }
    )
    assert spec.n_nodes == 3
    assert spec.rails[0] == MYRI_10G
    assert spec.host.memcpy_MBps == 5000.0


def test_preset_reference():
    spec = platform_from_dict({"rails": [{"preset": "qsnet2"}]})
    assert spec.rails[0].name == "qsnet2"


def test_preset_with_overrides():
    spec = platform_from_dict(
        {"rails": [{"preset": "myri10g", "overrides": {"poll_cost_us": 1.5}}]}
    )
    assert spec.rails[0].poll_cost_us == 1.5
    assert spec.rails[0].bw_MBps == MYRI_10G.bw_MBps


def test_preset_override_takes_a_nested_topology():
    """Overrides go through the same parser as a full rail (the parent
    handed the dict to ``replace`` and died on ``topology.kind``)."""
    topology = {"kind": "fat_tree", "radix": 4, "hosts": 2, "link_MBps": 1000.0}
    spec = platform_from_dict(
        {"n_nodes": 8, "rails": [{"preset": "myri10g", "overrides": {"topology": topology}}]}
    )
    assert spec.rails[0] == MYRI_10G.replace(topology=TopologySpec(**topology))


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown rail preset"):
        platform_from_dict({"rails": [{"preset": "carrier-pigeon"}]})


def test_stray_keys_next_to_preset_rejected():
    with pytest.raises(ConfigError, match="unexpected keys"):
        platform_from_dict({"rails": [{"preset": "myri10g", "poll_cost_us": 1.0}]})


def test_missing_rails():
    with pytest.raises(ConfigError):
        platform_from_dict({"n_nodes": 2})


def test_empty_rails():
    with pytest.raises(ConfigError):
        platform_from_dict({"rails": []})


def test_json_roundtrip(tmp_path):
    path = str(tmp_path / "platform.json")
    spec = paper_platform(n_nodes=4)
    with open(path, "w") as fh:
        json.dump(spec.to_dict(), fh)
    loaded = platform_from_json(path)
    assert loaded == spec


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        platform_from_json(str(path))
