"""Unit tests for kernel backend selection (repro.sim.backend)."""

import pytest

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
from repro.sim.calendar_queue import CalendarSimulator
from repro.sim.engine import Simulator as HeapSimulator


class TestResolveBackend:
    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "calendar")
        assert resolve_backend("heap") == "heap"

    def test_env_var_used_when_no_arg(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "calendar")
        assert resolve_backend() == "calendar"

    def test_auto_prefers_native_else_calendar(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        expected = "native" if native_available() else "calendar"
        assert resolve_backend() == expected
        assert resolve_backend("auto") == expected

    def test_case_and_whitespace_tolerant(self):
        assert resolve_backend("  Heap ") == "heap"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator backend"):
            resolve_backend("splay")

    def test_explicit_native_raises_when_unavailable(self, monkeypatch):
        import repro.sim.backend as backend_mod

        monkeypatch.setattr(backend_mod, "native_available", lambda: False)
        with pytest.raises(BackendUnavailableError):
            backend_mod.resolve_backend("native")

    def test_available_backends_always_has_pure_python(self):
        names = available_backends()
        assert names[:2] == ["heap", "calendar"]
        assert set(names) <= set(BACKEND_NAMES)


class TestSimulatorDispatch:
    def test_heap_request_builds_base_class(self):
        sim = Simulator(backend="heap")
        assert type(sim) is HeapSimulator
        assert sim.backend == "heap"

    def test_calendar_request_builds_subclass(self):
        sim = Simulator(backend="calendar")
        assert isinstance(sim, CalendarSimulator)
        assert sim.backend == "calendar"

    def test_env_var_steers_default_constructor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "calendar")
        assert Simulator().backend == "calendar"

    def test_subclass_construction_skips_dispatch(self):
        # constructing a concrete backend directly must never re-dispatch
        sim = CalendarSimulator()
        assert type(sim) is CalendarSimulator

    def test_simulator_class_mapping(self):
        assert simulator_class("heap") is HeapSimulator
        assert simulator_class("calendar") is CalendarSimulator
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
    def test_session_backend_kwarg(self):
        session = Session(paper_platform(), backend="calendar")
        assert session.sim.backend == "calendar"

    def test_session_defaults_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "heap")
        session = Session(paper_platform())
        assert session.sim.backend == "heap"

    def test_kernel_metrics_clean_under_calendar(self):
        session = Session(paper_platform(), backend="calendar")
        session.run_until_idle()
        assert session.metrics.gauge("engine.tombstone_ratio").value == 0.0
        assert session.metrics.counter("engine.heap_compactions").value == 0
