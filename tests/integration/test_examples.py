"""Smoke tests: every example program must run to completion.

Examples are part of the public documentation; running them end to end
(in-process, via runpy) keeps them in sync with the API.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, argv: list[str] = []) -> None:
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES_DIR / name)] + argv
    try:
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_expected_examples_present():
    assert set(EXAMPLES) >= {
        "quickstart.py",
        "multirail_strategies.py",
        "halo_exchange.py",
        "heterogeneous_cluster.py",
        "reproduce_figures.py",
        "collectives_demo.py",
        "trace_export.py",
    }


@pytest.mark.parametrize(
    "name", [e for e in EXAMPLES if e != "reproduce_figures.py"]
)
def test_example_runs(name, capsys, tmp_path, monkeypatch):
    if name == "halo_exchange.py":  # its application data are numpy arrays
        pytest.importorskip("numpy", reason="the 'examples' extra is not installed")
    monkeypatch.chdir(tmp_path)  # examples may write artifacts to cwd
    run_example(name)
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"


def test_reproduce_figures_subset(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # figures_out lands in tmp
    run_example("reproduce_figures.py", ["fig6"])
    out = capsys.readouterr().out
    assert "fig6" in out
    assert (tmp_path / "figures_out" / "fig6.txt").exists()
