"""Unit tests for kernel backend selection (repro.sim.backend)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.pingpong import run_pingpong
from repro.cli import main
from repro.core.session import Session
from repro.hardware.presets import paper_platform
from repro.sim import FlowNetwork, ScheduleInPastError, Simulator, make_flow_network, spawn
from repro.sim.backend import (
    BACKEND_NAMES,
    BackendUnavailableError,
    available_backends,
    flows_mode,
    native_available,
    resolve_backend,
    simulator_class,
)
from repro.sim.engine import Simulator as HeapSimulator
from repro.util.errors import ConfigError

#: what a request for the deleted third core must say, wherever it is made
CALENDAR_GONE = r"unknown simulator backend 'calendar' \(the calendar backend was removed; heap is the pure-Python core\); choose from auto, heap, native$"


def _pingpong_digest(session):
    """Everything a pingpong leaves behind that a kernel could change."""
    result = run_pingpong(session, 256 * 1024, segments=2, reps=2, warmup=1)
    return {
        "one_way_us": result.one_way_us,
        "now": session.sim.now,
        "events": session.sim.events_executed,
        "counters": session.counters().snapshot(),
    }


class TestResolveBackend:
    def test_names(self):
        assert BACKEND_NAMES == ("heap", "native")

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "native")
        assert resolve_backend("heap") == "heap"

    def test_env_var_used_when_no_arg(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "heap")
        assert resolve_backend() == "heap"

    def test_auto_prefers_native_else_heap(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        expected = "native" if native_available() else "heap"
        assert resolve_backend() == expected
        assert resolve_backend("auto") == expected

    def test_auto_falls_back_to_heap(self, monkeypatch):
        import repro.sim.backend as backend_mod

        monkeypatch.setattr(backend_mod, "native_available", lambda: False)
        assert backend_mod.resolve_backend("auto") == "heap"
        assert backend_mod.available_backends() == ["heap"]

    def test_case_and_whitespace_tolerant(self):
        assert resolve_backend("  Heap ") == "heap"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="choose from auto, heap, native$") as exc:
            resolve_backend("splay")
        assert "\n" not in str(exc.value) and "removed" not in str(exc.value)

    def test_explicit_native_raises_when_unavailable(self, monkeypatch):
        import repro.sim.backend as backend_mod

        monkeypatch.setattr(backend_mod, "native_available", lambda: False)
        with pytest.raises(BackendUnavailableError, match="auto, heap, native$") as exc:
            backend_mod.resolve_backend("native")
        assert isinstance(exc.value, ConfigError) and "\n" not in str(exc.value)

    def test_available_backends_always_has_pure_python(self):
        assert available_backends() in (["heap"], ["heap", "native"])
        assert ("native" in available_backends()) == native_available()


class TestCalendarIsGone:
    """The third core was deleted: naming it is an unknown backend, with
    one line that says where to go instead, and no traceback from the CLI."""

    def test_constructor_and_session(self):
        with pytest.raises(ConfigError, match=CALENDAR_GONE):
            Simulator(backend="calendar")
        with pytest.raises(ConfigError, match=CALENDAR_GONE):
            Session(paper_platform(), backend="calendar")

    def test_environment_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "calendar")
        with pytest.raises(ConfigError, match=CALENDAR_GONE):
            Simulator()
        assert main(["pingpong", "--size", "1024"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "calendar backend was removed" in line and "Traceback" not in line

    def test_bench_run_option(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "heap")  # the option wins
        out = tmp_path / "never.json"
        assert main(["bench", "run", "--backend", "calendar", "-o", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "calendar backend was removed" in line
        assert not out.exists() and os.environ["REPRO_SIM_BACKEND"] == "heap"


class TestSimulatorDispatch:
    def test_heap_request_builds_base_class(self):
        sim = Simulator(backend="heap")
        assert type(sim) is HeapSimulator
        assert sim.backend == "heap"

    def test_env_var_steers_default_constructor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "heap")
        assert type(Simulator()) is HeapSimulator

    def test_subclass_construction_skips_dispatch(self, monkeypatch):
        # constructing a concrete backend directly must never re-dispatch,
        # whatever the environment asks for
        class Sub(HeapSimulator):
            pass

        monkeypatch.setenv("REPRO_SIM_BACKEND", "native")
        assert type(Sub()) is Sub

    def test_simulator_class_mapping(self):
        assert simulator_class("heap") is HeapSimulator
        if native_available():
            from repro.sim.native import NativeSimulator

            assert simulator_class("native") is NativeSimulator
        with pytest.raises(ValueError):
            simulator_class("nope")

    def test_every_available_backend_runs_events(self):
        for name in available_backends():
            sim = Simulator(backend=name)
            out = []
            sim.schedule(2.0, out.append, "b")
            sim.schedule(1.0, out.append, "a")
            sim.run_until_idle()
            assert out == ["a", "b"], name
            assert sim.events_executed == 2
            assert sim.backend == name


class TestPurePythonFallback:
    """What a host without a C compiler gets: ``auto`` is the heap
    reference, and it computes what the native core computes."""

    def test_native_disabled_subprocess_matches(self):
        code = (
            "import json\n"
            "from repro.core.session import Session\n"
            "from repro.hardware.presets import paper_platform\n"
            "from repro.sim import Simulator, available_backends\n"
            "from tests.sim.test_backend import _pingpong_digest\n"
            "assert Simulator().backend == 'heap'\n"
            "assert available_backends() == ['heap']\n"
            "session = Session(paper_platform(), strategy='split_balance')\n"
            "assert session.sim.backend == 'heap'\n"
            "print(json.dumps(_pingpong_digest(session)))\n"
        )
        root = Path(__file__).resolve().parents[2]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_SIM_BACKEND"}
        env["REPRO_NATIVE_DISABLE"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        fallback = json.loads(proc.stdout)
        for name in available_backends():  # native too, where it loads
            here = Session(paper_platform(), strategy="split_balance", backend=name)
            assert _pingpong_digest(here) == fallback, name


@pytest.mark.parametrize("backend", available_backends())
class TestNanTimeRejected:
    """NaN compares false with everything, so a ``delay < 0`` test lets it
    through, and one NaN timestamp poisons the ``(time, seq)`` order."""

    def test_schedule_and_at(self, backend):
        sim = Simulator(backend=backend)
        out = []
        with pytest.raises(ScheduleInPastError):
            sim.schedule(float("nan"), out.append, "x")
        with pytest.raises(ScheduleInPastError):
            sim.at(float("nan"), out.append, "x")
        sim.schedule(1.0, out.append, "a")
        sim.run_until_idle()
        assert out == ["a"] and sim.now == 1.0 and sim.events_scheduled == 1

    def test_process_yielding_bare_nan(self, backend):
        sim = Simulator(backend=backend)

        def proc():
            yield float("nan")

        spawn(sim, proc())
        with pytest.raises(ScheduleInPastError):
            sim.run_until_idle()
        assert sim.now == 0.0


class TestFlowsMode:
    """What ``hostbench`` reads from outside: there is one allocator."""

    def test_explicit_scalar(self):
        sim = Simulator()
        assert flows_mode() == "scalar"
        assert type(make_flow_network(sim)) is FlowNetwork
        assert type(Session(paper_platform()).platform.flownet) is FlowNetwork

    def test_unknown_mode_rejected(self):
        # no mode argument, no option: nothing selects the allocator
        with pytest.raises(TypeError):
            flows_mode("vector")
        with pytest.raises(TypeError):
            make_flow_network(Simulator(), "vector")


class TestSessionWiring:
    def test_session_backend_kwarg(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "native")
        session = Session(paper_platform(), backend="heap")
        assert session.sim.backend == "heap"

    def test_session_defaults_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "heap")
        session = Session(paper_platform())
        assert session.sim.backend == "heap"
