"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import ScheduleInPastError, SimulationError, Simulator
from repro.sim.backend import available_backends


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(5.0, out.append, "late")
    sim.schedule(1.0, out.append, "early")
    sim.schedule(3.0, out.append, "mid")
    sim.run()
    assert out == ["early", "mid", "late"]
    assert sim.now == 5.0


def test_same_time_events_run_fifo():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(2.0, out.append, i)
    sim.run()
    assert out == list(range(10))


def test_zero_delay_runs_after_already_queued_same_time():
    sim = Simulator()
    out = []

    def first():
        out.append("first")
        sim.schedule(0.0, out.append, "chained")

    sim.schedule(1.0, first)
    sim.schedule(1.0, out.append, "second")
    sim.run()
    assert out == ["first", "second", "chained"]


def test_negative_delay_rejected():
    with pytest.raises(ScheduleInPastError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleInPastError):
        sim.at(1.0, lambda: None)


def test_cancel_pending_event():
    sim = Simulator()
    out = []
    ev = sim.schedule(1.0, out.append, "x")
    assert ev.alive
    assert ev.cancel() is True
    assert not ev.alive
    sim.run()
    assert out == []


def test_cancel_twice_returns_false():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    assert ev.cancel() is True
    assert ev.cancel() is False


def test_cancel_after_fire_returns_false():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.run()
    assert ev.fired
    assert ev.cancel() is False


def test_run_until_is_inclusive():
    sim = Simulator()
    out = []
    sim.schedule(2.0, out.append, "at2")
    sim.schedule(3.0, out.append, "at3")
    sim.run(until=2.0)
    assert out == ["at2"]
    assert sim.now == 2.0
    sim.run()
    assert out == ["at2", "at3"]


def test_run_until_advances_clock_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


@pytest.mark.parametrize("backend", available_backends())
def test_the_clock_is_a_float_whatever_number_a_caller_passes(backend):
    """An int time or ``until`` is stored as a float on every core, so
    what a run stamps with the clock (a fault plan's ``"at_us": 20``
    outage span, say) reads ``20.0`` whichever core ran it."""
    sim = Simulator(backend=backend)
    ev = sim.at(5, lambda: None)
    assert repr(ev.time) == repr(sim.peek_next_time()) == "5.0"
    sim.run()
    assert repr(sim.now) == "5.0"
    sim.run(until=10)
    assert repr(sim.now) == "10.0"
    assert repr(sim.schedule(1, lambda: None).time) == "11.0"
    assert repr(sim.at(12, lambda: None).time) == "12.0"
    sim.run()
    assert repr(sim.now) == "12.0"


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_executed_counts():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 7


def test_pending_excludes_cancelled():
    sim = Simulator()
    ev1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    ev1.cancel()
    assert sim.pending == 1


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    ev1 = sim.schedule(1.0, lambda: None)
    sim.schedule(4.0, lambda: None)
    ev1.cancel()
    assert sim.peek_next_time() == 4.0


def test_peek_next_time_empty():
    assert Simulator().peek_next_time() is None


def test_not_reentrant():
    sim = Simulator()

    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_idle_detects_runaway():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_max_events_bound():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(float(i + 1), out.append, i)
    sim.run(max_events=4)
    assert out == [0, 1, 2, 3]


def test_callback_args_passed():
    sim = Simulator()
    got = []
    sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
    sim.run()
    assert got == [(1, "x")]


def test_cancelled_event_releases_callback_reference():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    ev.cancel()
    assert ev.fn is None and ev.args == ()


# --------------------------------------------------------------------- #
# kernel fast paths: live counter, zero-delay lane, tombstone compaction
# --------------------------------------------------------------------- #
def test_pending_counts_zero_delay_lane():
    sim = Simulator()
    fired = []

    def first():
        sim.schedule(0.0, fired.append, "a")
        ev_b = sim.schedule(0.0, fired.append, "b")
        assert sim.pending == 3  # a, b and the t=2 heap event
        ev_b.cancel()
        assert sim.pending == 2

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, "late")
    assert sim.pending == 2
    sim.run()
    assert fired == ["a", "late"]
    assert sim.pending == 0


def test_events_scheduled_counts_cancelled_too():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    ev = sim.schedule(2.0, lambda: None)
    ev.cancel()
    sim.run()
    assert sim.events_scheduled == 2
    assert sim.events_executed == 1


def test_step_picks_earlier_of_fifo_and_heap():
    sim = Simulator()
    out = []

    def first():
        sim.schedule(0.0, out.append, "zero")

    sim.schedule(1.0, first)
    sim.schedule(1.0, out.append, "heap")
    while sim.step():
        pass
    assert out == ["heap", "zero"]


def test_tombstone_ratio_reports_dead_fraction():
    sim = Simulator(backend="heap")
    sim._compact_min_dead = 1000  # effectively disable compaction
    evs = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for ev in evs[:4]:
        ev.cancel()
    assert sim.tombstone_ratio == pytest.approx(0.4)
    assert sim.heap_compactions == 0
    sim.run()
    assert sim.tombstone_ratio == 0.0


def test_heap_compaction_triggers_and_preserves_order():
    sim = Simulator(backend="heap")
    sim._compact_min_dead = 8
    out = []
    for i in range(32):
        ev = sim.schedule(float(i + 1), out.append, i)
        if i % 4 != 0:
            ev.cancel()
    assert sim.heap_compactions >= 1
    assert sim.tombstone_ratio < 0.5
    sim.run()
    assert out == [i for i in range(32) if i % 4 == 0]
    assert sim.pending == 0


def test_compaction_during_run_keeps_local_heap_binding():
    sim = Simulator(backend="heap")
    sim._compact_min_dead = 4
    out = []
    later = [sim.schedule(10.0 + i, out.append, f"late{i}") for i in range(8)]

    def killer():
        for ev in later:
            ev.cancel()
        sim.schedule(1.0, out.append, "after")

    sim.schedule(1.0, killer)
    sim.run()
    assert out == ["after"]
    assert sim.heap_compactions >= 1


def test_cancel_in_fifo_lane_does_not_count_as_heap_tombstone():
    sim = Simulator(backend="heap")
    out = []

    def first():
        ev = sim.schedule(0.0, out.append, "never")
        ev.cancel()
        assert sim.tombstone_ratio == 0.0

    sim.schedule(1.0, first)
    sim.run_until_idle()
    assert out == []


#: (call, error type, message) at t = 5.0; a message given per core is
#: the interpreter's own TypeError text, which differs between a Python
#: comparison and the C core's float conversion
_SCHEDULE_ERRORS = [
    ("at", 1.0, ScheduleInPastError, "cannot schedule at 1.0, current time is 5.0"),
    ("at", 1, ScheduleInPastError, "cannot schedule at 1, current time is 5.0"),
    ("at", float("nan"), ScheduleInPastError, "cannot schedule at nan, current time is 5.0"),
    ("schedule", -1.0, ScheduleInPastError, "negative delay -1.0"),
    ("schedule", -3, ScheduleInPastError, "negative delay -3"),
    ("schedule", float("nan"), ScheduleInPastError, "negative delay nan"),
    ("schedule", float("-inf"), ScheduleInPastError, "negative delay -inf"),
    ("at", "x", TypeError, {
        "heap": "'>=' not supported between instances of 'str' and 'float'",
        "native": "must be real number, not str",
    }),
    ("schedule", None, TypeError, {
        "heap": "'>=' not supported between instances of 'NoneType' and 'int'",
        "native": "must be real number, not NoneType",
    }),
]


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("method, when, error, message", _SCHEDULE_ERRORS)
def test_schedule_errors_read_the_same(backend, method, when, error, message):
    sim = Simulator(backend=backend)
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(error) as info:
        getattr(sim, method)(when, lambda: None)
    assert str(info.value) == (message[backend] if type(message) is dict else message)
    assert sim.pending == 0 and sim.events_scheduled == 1
