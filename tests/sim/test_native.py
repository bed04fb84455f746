"""Unit tests for the native (C extension) event core.

Skipped wholesale on hosts without a C toolchain — the native backend is
an optional accelerator and ``auto`` falls back to the heap reference.
"""

import pytest

from repro.sim import ScheduleInPastError, SimulationError
from repro.sim.backend import native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C toolchain: native core not built"
)


@pytest.fixture()
def sim():
    from repro.sim.native import NativeSimulator

    return NativeSimulator()


class TestSemanticsParity:
    def test_pop_order_time_then_fifo(self, sim):
        out = []
        sim.schedule(2.0, out.append, "late")
        sim.schedule(1.0, out.append, "a")
        sim.schedule(1.0, out.append, "b")
        sim.run_until_idle()
        assert out == ["a", "b", "late"]

    def test_zero_delay_lane(self, sim):
        out = []

        def first():
            sim.schedule(0.0, out.append, "zero")

        sim.schedule(1.0, first)
        sim.schedule(1.0, out.append, "peer")
        sim.run_until_idle()
        assert out == ["peer", "zero"]

    def test_cancel_and_counters(self, sim):
        out = []
        sim.schedule(1.0, out.append, "kept")
        ev = sim.schedule(2.0, out.append, "gone")
        assert ev.alive
        assert ev.cancel() is True
        assert ev.cancel() is False
        sim.run_until_idle()
        assert out == ["kept"]
        assert sim.events_scheduled == 2
        assert sim.events_executed == 1

    def test_cancel_after_fire_returns_false(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        assert not ev.alive
        assert ev.cancel() is False

    def test_run_until_clamps_clock(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == pytest.approx(4.0)
        assert sim.pending == 1

    def test_error_messages_match_python_kernel(self, sim):
        with pytest.raises(SimulationError, match="negative delay"):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ScheduleInPastError, match="cannot schedule at"):
            sim.at(1.0, lambda: None)

    def test_not_reentrant(self, sim):
        def inner():
            sim.run()

        sim.schedule(1.0, inner)
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()

    def test_run_until_idle_raises_on_livelock(self, sim):
        def again():
            sim.schedule(1.0, again)

        sim.schedule(1.0, again)
        with pytest.raises(SimulationError, match="did not converge"):
            sim.run_until_idle(max_events=100)


class TestHeapHealth:
    def test_compaction_knob_and_tombstone_ratio(self, sim):
        sim._compact_min_dead = 1000
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for ev in evs[:4]:
            ev.cancel()
        assert sim.tombstone_ratio == pytest.approx(0.4)
        assert sim.heap_compactions == 0
        sim.run_until_idle()
        assert sim.tombstone_ratio == 0.0

    def test_compaction_triggers_and_preserves_order(self, sim):
        sim._compact_min_dead = 8
        out = []
        for i in range(32):
            ev = sim.schedule(float(i + 1), out.append, i)
            if i % 4 != 0:
                ev.cancel()
        assert sim.heap_compactions >= 1
        sim.run_until_idle()
        assert out == [i for i in range(32) if i % 4 == 0]


class TestLifecycle:
    def test_callback_cycles_are_collectable(self):
        import gc
        import weakref

        from repro.sim.native import NativeSimulator

        class Sentinel:
            pass

        sim = NativeSimulator()
        sentinel = Sentinel()
        ref = weakref.ref(sentinel)

        def cb(s=sentinel):
            pass

        sim.schedule(1.0, cb)
        sim.run_until_idle()
        del sim, cb, sentinel
        gc.collect()
        assert ref() is None

    def test_a_process_parked_forever_is_collected_with_its_session(self):
        """A process waiting on a signal nobody fires is a cycle through
        its C resume (process -> resume -> process, generator, core); once
        the session is dropped the collector frees it and the generator's
        ``finally`` runs."""
        import gc

        from repro import Session, paper_platform
        from repro.sim import Signal

        closed = []

        def parked(signal):
            try:
                yield signal
            finally:
                closed.append(True)

        session = Session(paper_platform(), backend="native")
        proc = session.spawn(parked(Signal(session.sim)))
        session.run_until_idle()
        assert not proc.done and type(proc._resume).__name__ == "Resume"
        del session, proc
        gc.collect()
        assert closed == [True]
