"""Unit tests for config loading."""

import json

import pytest

from repro.cli import main
from repro.faults.plan import FaultPlan
from repro.hardware.presets import MYRI_10G, paper_platform
from repro.hardware.spec import TopologySpec
from repro.obs.log import parse_events
from repro.obs.perf import load_record
from repro.obs.spans import SpanError
from repro.obs.streaming import load_span_stream
from repro.util.config import platform_from_dict, platform_from_json
from repro.util.errors import BenchError, ConfigError


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


# --- one reader: every JSON / JSONL ingress refuses a hostile file alike ------
#: name -> (reader, the error class it raises, whether it reads JSONL)
READERS = {
    "platform_from_json": (platform_from_json, ConfigError, False),
    "load_record": (load_record, BenchError, False),
    "FaultPlan.load": (FaultPlan.load, ConfigError, False),
    "parse_events": (parse_events, BenchError, True),
    "load_span_stream": (load_span_stream, SpanError, True),
}

#: hostile document -> (bytes, whether the refusal names its line)
HOSTILE_FILES = {
    "missing": (None, False),
    "non-utf8": (b"\xff\xfe{}\n", False),
    "invalid-json": (b'{"a": \n', True),
    "not-an-object": (b"[1, 2]\n", True),
}


@pytest.mark.parametrize("hostile", sorted(HOSTILE_FILES))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_refuses_a_hostile_file_in_one_line(reader, hostile, tmp_path):
    """Each reader raises its own error class, in one line naming the file
    (and, in a JSONL file, the line: the hostile one follows a valid one)."""
    read, error, lines = READERS[reader]
    data, names_line = HOSTILE_FILES[hostile]
    path = tmp_path / ("in.jsonl" if lines else "in.json")
    if data is not None:
        path.write_bytes(b"{}\n" + data if lines else data)
    with pytest.raises(error) as info:
        read(str(path))
    message = str(info.value)
    assert type(info.value) is error and "\n" not in message
    assert (f"{path}:2: " if lines and names_line else str(path)) in message


@pytest.mark.parametrize("hostile", sorted(HOSTILE_FILES))
@pytest.mark.parametrize("command", [["--platform", "{}", "pingpong"],
                                     ["bench", "compare", "{}", "{}"]], ids=" ".join)
def test_a_hostile_file_on_the_command_line_exits_2(command, hostile, tmp_path, capsys):
    data, _ = HOSTILE_FILES[hostile]
    path = tmp_path / "in.json"
    if data is not None:
        path.write_bytes(data)
    assert main([str(path) if arg == "{}" else arg for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert str(path) in captured.err and captured.out == ""
