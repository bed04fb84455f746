"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SURFACE = Path(__file__).parent / "data" / "cli_surface.json"


def _valid_chrome_trace(path) -> dict:
    from repro.obs import validate_chrome_trace

    doc = json.loads(Path(path).read_text())
    assert validate_chrome_trace(doc) == []
    return doc


def parser_surface(parser: argparse.ArgumentParser) -> dict:
    """Everything a user can type or read in ``--help``, as plain data
    (no rendered help text, so it is the same on every interpreter)."""
    actions, commands = [], {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            commands = {
                name: {"help": helps.get(name), **parser_surface(sub)}
                for name, sub in action.choices.items()
            }
            actions.append({"dest": action.dest, "required": action.required,
                            "subcommands": sorted(commands)})
            continue
        actions.append(
            {
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "type": getattr(action.type, "__name__", action.type),
                "nargs": action.nargs,
                "choices": None if action.choices is None else list(action.choices),
                "required": action.required,
                "metavar": action.metavar,
                "help": action.help,
            }
        )
    return {
        "prog": parser.prog,
        "description": parser.description,
        "actions": actions,
        "commands": commands,
    }


def test_parser_surface_is_pinned():
    """No flag added, none lost, no help string edited: the snapshot was
    generated from the parent commit's parser (PR 17) and is only ever
    regenerated by a PR whose issue asks for a CLI change."""
    assert parser_surface(build_parser()) == json.loads(SURFACE.read_text())


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "split_balance" in out
    assert "myri10g" in out


def test_pingpong_command(capsys):
    assert main(["pingpong", "--size", "64K", "--segments", "2", "--strategy", "greedy", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "one-way" in out and "MB/s" in out


def test_pingpong_with_pio_workers(capsys):
    assert main(
        ["pingpong", "--size", "8K", "--segments", "2", "--strategy", "greedy", "--pio-workers", "1", "--reps", "2"]
    ) == 0
    assert "MB/s" in capsys.readouterr().out


def test_pingpong_pinned_rail(capsys):
    assert main(
        ["pingpong", "--size", "1K", "--strategy", "single_rail", "--rail", "qsnet2", "--reps", "2"]
    ) == 0


def test_figures_subset(capsys, tmp_path):
    assert main(["figures", "fig4b", "--reps", "1", "--out", str(tmp_path), "--plot"]) == 0
    out = capsys.readouterr().out
    assert "fig4b" in out
    assert "dynamically balanced" in out
    assert (tmp_path / "fig4b.txt").exists()
    assert (tmp_path / "fig4b.csv").exists()


def test_figures_unknown_id(capsys):
    assert main(["figures", "fig42"]) == 2
    assert "unknown figures" in capsys.readouterr().err


def test_ablations_subset(capsys):
    assert main(["ablations", "window"]) == 0
    assert "optimization window" in capsys.readouterr().out


def test_ablations_unknown(capsys):
    assert main(["ablations", "quantum"]) == 2


@pytest.mark.parametrize("command", ["ablations", "extensions"])
def test_every_registered_study_reaches_every_consumer(
    command, capsys, tmp_path, monkeypatch
):
    """A study added to ``ABLATIONS``/``EXTENSIONS`` cannot be forgotten:
    the command and the EXPERIMENTS.md generator iterate the table, so each
    registered study appears exactly once in both (and the generator hands
    it the shared ``samples`` exactly when its entry says so)."""
    from repro.bench import experiments
    from repro.bench.ablations import ABLATIONS
    from repro.bench.extensions import EXTENSIONS
    from repro.util.tables import Table

    studies = {"ablations": ABLATIONS, "extensions": EXTENSIONS}[command]
    assert studies
    got_samples = {}
    for name, (fn, takes_samples) in studies.items():
        assert callable(fn) and fn.__name__.endswith(name)

        def stub(samples=None, _name=name):
            got_samples[_name] = samples is not None
            return Table(["x"], title=f"<<study {_name}>>")

        monkeypatch.setitem(studies, name, (stub, takes_samples))
    monkeypatch.setattr(experiments, "run_experiments", lambda **kw: ({}, []))

    assert main([command]) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "X.md"
    experiments.write_experiments_md(str(path), include_ablations=True)
    for name in studies:
        assert printed.count(f"<<study {name}>>") == 1
        assert path.read_text().count(f"<<study {name}>>") == 1
        assert got_samples[name] == studies[name][1]


#: the harness' own complaints: one line on stderr, exit 2, no traceback
BAD_COMMAND_LINES = [
    ["pingpong", "--reps", "0"],
    ["pingpong", "--segments", "0"],
    ["flood", "--count", "0"],
    ["flood", "--window", "0"],
    ["figures", "fig4a", "--jobs", "-1"],
    ["figures", "fig4a", "--reps", "0"],
    ["--platform", "/nonexistent/platform.json", "pingpong"],
    ["analyze", "fig6", "--bins", "0"],
    # a rail for a strategy that pins none, and a rail that does not exist
    *(["pingpong", "--strategy", name, "--rail", "myri10g"]
      for name in ("greedy", "aggreg_multirail", "split_balance", "feedback", "tournament")),
    ["pingpong", "--strategy", "single_rail", "--rail", "nosuch"],
]

_QSNET2 = '{"preset": "qsnet2"}'
_MYRI = '{"rails": [{"preset": "myri10g", "overrides": %s}, ' + _QSNET2 + "]}"
#: hand-written platform files: name → (document, the field the one line
#: names).  Before the spec checked its fields the first six were
#: tracebacks and the next two ran and printed a result (``2.7`` on 2
#: nodes); an unknown driver API was a traceback from the engine build.
HOSTILE_PLATFORMS = {
    "string-number": (_MYRI % '{"bw_MBps": "fast"}', "bw_MBps must be a number"),
    "unknown-override": (_MYRI % '{"nope": 1}', "unknown field 'nope'"),
    "nested-topology": (_MYRI % '{"topology": {"kind": "fat_tree"}}', "link_MBps"),
    "missing-latency": (
        '{"rails": [{"name": "x", "driver": "tcp", "bw_MBps": 100, "pio_MBps": 300}]}',
        "rail x: missing required field 'lat_us'",
    ),
    "unknown-host-field": ('{"host": {"zzz": 1}, "rails": [%s]}' % _QSNET2, "'zzz'"),
    "top-level-list": ("[1, 2]", "expected a JSON object, got list"),
    "string-node-count": ('{"n_nodes": "2", "rails": [%s]}' % _QSNET2, "n_nodes"),
    "float-node-count": ('{"n_nodes": 2.7, "rails": [%s]}' % _QSNET2, "n_nodes"),
    "unknown-driver": (_MYRI % '{"driver": "verbs"}', "unknown driver 'verbs'"),
}
BAD_COMMAND_LINES += [
    ["--platform", f"hostile:{name}", "pingpong"] for name in HOSTILE_PLATFORMS
]


@pytest.mark.parametrize("argv", BAD_COMMAND_LINES, ids=" ".join)
def test_harness_errors_are_one_line_and_exit_2(argv, capsys, tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    needle = ""
    if argv[1].startswith("hostile:"):
        document, needle = HOSTILE_PLATFORMS[argv[1].removeprefix("hostile:")]
        (tmp_path / "platform.json").write_text(document)
        argv = [argv[0], str(tmp_path / "platform.json"), *argv[2:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert needle in captured.err and captured.out == ""
    assert not list(cwd.iterdir())  # nothing written


@pytest.mark.parametrize(
    "override", ['{"bw_MBps": NaN}', '{"bw_MBps": Infinity}', '{"poll_cost_us": NaN}']
)
def test_non_finite_platform_value_is_one_line_and_exit_2(override, capsys, tmp_path):
    """``json.loads`` accepts NaN/Infinity; the spec must not (the parent
    printed ``one-way 577.56 us`` for the first case and exited 0)."""
    config = tmp_path / "platform.json"
    config.write_text(
        '{"n_nodes": 2, "rails": [{"preset": "myri10g", "overrides": %s},'
        ' {"preset": "qsnet2"}]}' % override
    )
    argv = ["--platform", str(config), "pingpong", "--size", "1M",
            "--strategy", "split_balance"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "must be a finite number" in captured.err and captured.out == ""


def test_non_utf8_platform_file_is_one_line_and_exit_2(capsys, tmp_path):
    config = tmp_path / "platform.json"
    config.write_bytes(b"\xff\xfe")
    assert main(["--platform", str(config), "pingpong"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert f"cannot read {config}" in captured.err and captured.out == ""


def test_sample_command(capsys):
    assert main(["sample"]) == 0
    out = capsys.readouterr().out
    assert "stripping ratios" in out
    assert "myri10g" in out


def test_custom_platform_file(capsys, tmp_path):
    from repro.hardware.presets import paper_platform

    path = tmp_path / "plat.json"
    path.write_text(json.dumps(paper_platform().to_dict()))
    assert main(["--platform", str(path), "pingpong", "--size", "1K", "--strategy", "greedy", "--reps", "1"]) == 0


def test_flood_command(capsys):
    assert main(["flood", "--size", "64K", "--count", "8", "--window", "4"]) == 0
    out = capsys.readouterr().out
    assert "flood" in out and "MB/s" in out and "msgs/ms" in out


def test_trace_command(capsys, tmp_path):
    from repro.obs import load_span_stream, to_chrome_trace

    trace = tmp_path / "fig6.json"
    stream = tmp_path / "fig6.jsonl"
    assert main(
        ["trace", "bench_fig6", "-o", str(trace), "--stream", str(stream)]
    ) == 0
    out = capsys.readouterr().out
    assert "span events" in out
    assert f"span stream {stream}: 430 spans, 0 sampled out" in out
    assert "Request lifecycle" in out
    assert "idle-poll tax" in out and "myri10g" in out
    doc = _valid_chrome_trace(trace)
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    # the span file reads back, to the trace written beside it
    spans = load_span_stream(str(stream))
    assert to_chrome_trace(spans)["traceEvents"] == doc["traceEvents"]


def test_trace_no_report(capsys, tmp_path):
    trace = tmp_path / "t.json"
    assert main(["trace", "pingpong", "-o", str(trace), "--no-report"]) == 0
    out = capsys.readouterr().out
    assert "Request lifecycle" not in out
    assert trace.exists()


def test_trace_unknown_target(capsys, tmp_path):
    assert main(["trace", "fig99", "-o", str(tmp_path / "t.json")]) == 2
    assert "unknown trace target" in capsys.readouterr().err


def test_trace_target_aliases():
    from repro.bench import TRACE_TARGETS, resolve_trace_target

    assert resolve_trace_target("fig6") is TRACE_TARGETS["fig6"]
    assert resolve_trace_target("bench_fig6") is TRACE_TARGETS["fig6"]
    assert resolve_trace_target("fig4a") is TRACE_TARGETS["fig4"]
    assert resolve_trace_target("Fig5.py") is TRACE_TARGETS["fig5"]


def test_trace_json_output(capsys, tmp_path):
    import json

    trace = tmp_path / "t.json"
    assert main(["trace", "failover", "--json", "-o", str(trace)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target"] == "failover"
    assert doc["trace"]["span_events"] > 0
    assert doc["kernel"]["events_executed"] > 0
    assert doc["counters"]  # scalar metrics only, JSON-ready
    assert set(doc["faults"]["health"]) == {"myri10g", "qsnet2"}
    assert all(k.startswith("fault.") for k in doc["faults"]["counters"])
    assert trace.exists()  # the trace file is still written


def test_trace_json_without_faults(capsys, tmp_path):
    import json

    assert main(
        ["trace", "fig6", "--json", "-o", str(tmp_path / "t.json")]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["faults"] is None


def test_analyze_command(capsys, tmp_path):
    from repro.obs.critical_path import OVERLAY_TID

    overlay = tmp_path / "overlay.json"
    assert main(["analyze", "fig6", "-o", str(overlay)]) == 0
    out = capsys.readouterr().out
    assert "Critical-path" in out or "blame" in out.lower()
    assert "idle-poll tax on the critical path" in out
    doc = _valid_chrome_trace(overlay)
    assert any(e.get("tid") == OVERLAY_TID for e in doc["traceEvents"])


def test_analyze_json(capsys):
    import json

    from repro.obs.critical_path import CATEGORIES

    assert main(["analyze", "failover", "--json", "--node", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["requests"] and all(r["node"] == 0 for r in doc["requests"])
    assert set(doc["category_totals"]) == set(CATEGORIES)
    assert doc["category_totals"]["failover_retry"] > 0.0
    for req in doc["requests"]:
        assert sum(req["by_category"].values()) == pytest.approx(
            req["total_us"], rel=1e-9, abs=1e-6
        )


def test_analyze_unknown_target(capsys):
    assert main(["analyze", "fig99"]) == 2
    assert "unknown trace target" in capsys.readouterr().err


def test_extensions_subset(capsys):
    assert main(["extensions", "parallel_pio_latency"]) == 0
    assert "parallel PIO" in capsys.readouterr().out


def test_extensions_unknown(capsys):
    assert main(["extensions", "warp_drive"]) == 2
