"""Unit tests for generator processes, signals and combinators."""

import gc

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Process,
    ProcessError,
    Signal,
    Simulator,
    Timeout,
    spawn,
)


def test_timeout_advances_time():
    sim = Simulator()
    seen = []

    def proc():
        yield Timeout(3.0)
        seen.append(sim.now)
        yield Timeout(2.0)
        seen.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert seen == [3.0, 5.0]


def test_negative_timeout_rejected():
    with pytest.raises(ProcessError):
        Timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        return 42

    p = spawn(sim, proc())
    sim.run()
    assert p.done and p.value == 42


def test_spawn_delay():
    sim = Simulator()
    start = []

    def proc():
        start.append(sim.now)
        yield Timeout(0.0)

    spawn(sim, proc(), delay=7.5)
    sim.run()
    assert start == [7.5]


def test_signal_wakes_all_waiters_once():
    sim = Simulator()
    sig = Signal(sim)
    woken = []

    def proc(name):
        value = yield sig
        woken.append((name, value, sim.now))

    spawn(sim, proc("a"))
    spawn(sim, proc("b"))
    sig.sim.schedule(4.0, sig.fire, "payload")
    sim.run()
    assert woken == [("a", "payload", 4.0), ("b", "payload", 4.0)]
    assert sig.fire_count == 1
    assert sig.fire("again") == 0 and len(woken) == 2  # the fire emptied it


def test_signal_late_waiter_misses_past_fire():
    sim = Simulator()
    sig = Signal(sim)
    sig.fire()
    got = []

    def proc():
        got.append((yield sig))

    spawn(sim, proc())
    sig.sim.schedule(2.0, sig.fire, "second")
    sim.run()
    assert got == ["second"]


def test_signal_unwait():
    sim = Simulator()
    sig = Signal(sim)
    calls = []
    cb = calls.append
    sig.wait(cb)
    sig.unwait(cb)
    sig.unwait(cb)  # no-op when absent
    assert sig.fire("x") == 0
    assert calls == []


def test_wait_on_child_process():
    sim = Simulator()
    order = []

    def child():
        yield Timeout(5.0)
        order.append("child")
        return "result"

    def parent():
        c = spawn(sim, child())
        value = yield c
        order.append(("parent", value, sim.now))

    spawn(sim, parent())
    sim.run()
    assert order == ["child", ("parent", "result", 5.0)]


def test_wait_on_already_done_process():
    sim = Simulator()

    def child():
        return "done"
        yield  # pragma: no cover

    def parent():
        c = spawn(sim, child())
        yield Timeout(10.0)  # child finishes long before
        value = yield c
        return value

    p = spawn(sim, parent())
    sim.run()
    assert p.value == "done"


def test_allof_gathers_results_in_order():
    sim = Simulator()
    sig = Signal(sim)

    def proc():
        results = yield AllOf([Timeout(5.0), sig, Timeout(1.0)])
        return results

    p = spawn(sim, proc())
    sig.sim.schedule(3.0, sig.fire, "sig-value")
    sim.run()
    assert p.value == [None, "sig-value", None]
    assert sim.now == 5.0


def test_anyof_returns_first():
    sim = Simulator()

    def proc():
        index, value = yield AnyOf([Timeout(9.0), Timeout(2.0)])
        return (index, sim.now)

    p = spawn(sim, proc())
    sim.run()
    assert p.value == (1, 2.0)


def test_anyof_ignores_later_completions():
    sim = Simulator()
    sig = Signal(sim)

    def proc():
        got = yield AnyOf([sig, Timeout(1.0)])
        yield Timeout(10.0)
        return got

    p = spawn(sim, proc())
    sig.sim.schedule(5.0, sig.fire, "late")  # fires after the timeout already won
    sim.run()
    assert p.value == (1, None)


def test_anyof_winner_withdraws_the_losing_waits():
    sim = Simulator()
    won, lost = Signal(sim), Signal(sim)
    resumed = []

    def child():
        yield Timeout(50.0)

    kid = spawn(sim, child())

    def proc():
        resumed.append((yield AnyOf([lost, kid, won, Timeout(7.0)])))
        # the losers carry no dead callback; the winner was cleared by fire()
        assert lost.fire("nobody") == 0 and won.fire("again") == 0
        assert not kid._watchers
        yield Timeout(20.0)  # the lost Timeout(7) event runs, to no effect

    p = spawn(sim, proc())
    won.sim.schedule(3.0, won.fire, "first")
    sim.run()
    assert resumed == [(2, "first")] and p.done and kid.done


def test_anyof_stops_arming_once_a_finished_child_has_won():
    sim = Simulator()
    later = Signal(sim)

    def child():
        return "early"
        yield  # pragma: no cover

    def proc():
        kid = spawn(sim, child())
        yield Timeout(1.0)
        got = yield AnyOf([kid, later, Timeout(30.0)])
        return (got, sim.now)

    p = spawn(sim, proc())
    sim.run()
    assert p.value == ((0, "early"), 1.0)
    assert later.fire("nobody") == 0
    assert sim.now == 1.0  # no stray Timeout(30) event was scheduled


def test_process_unwait_withdraws_an_on_done_callback():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)

    p = spawn(sim, proc())
    got = []
    p.wait(got.append)  # the waitable protocol's name for on_done
    p.on_done(got.append)
    p.unwait(got.append)  # removes one registration
    p.unwait(print)  # no-op when absent
    sim.run()
    assert got == [None]


def test_any_object_with_wait_and_unwait_is_yieldable():
    """The yield contract is the protocol, not a list of classes."""
    sim = Simulator()

    class Latch:
        def __init__(self):
            self.callbacks = []

        def wait(self, callback):
            self.callbacks.append(callback)

        def unwait(self, callback):
            self.callbacks.remove(callback)

        def release(self, value):
            callbacks, self.callbacks = self.callbacks, []
            for cb in callbacks:
                cb(value)

    first, second = Latch(), Latch()

    def proc():
        a = yield first
        b = yield AnyOf([first, second])
        c = yield AllOf([first, second])
        return (a, b, c, sim.now)

    p = spawn(sim, proc())
    sim.schedule(1.0, first.release, "a")
    sim.schedule(2.0, second.release, "b")
    sim.schedule(2.5, lambda: (first.release("c1"), second.release("c2")))
    sim.run()
    assert p.value == ("a", (1, "b"), ["c1", "c2"], 2.5)
    assert first.callbacks == [] and second.callbacks == []


def test_empty_combinators_rejected():
    with pytest.raises(ProcessError):
        AllOf([])
    with pytest.raises(ProcessError):
        AnyOf([])


def test_bad_yield_value_raises():
    sim = Simulator()

    def proc():
        yield "nonsense"

    spawn(sim, proc())
    with pytest.raises(ProcessError):
        sim.run()


def test_on_done_after_completion_fires_immediately():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        return 5

    p = spawn(sim, proc())
    sim.run()
    got = []
    p.on_done(got.append)
    assert got == [5]


def test_process_cannot_start_twice():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)

    p = Process(sim, proc())
    p._start()
    with pytest.raises(ProcessError):
        p._start()


def test_nested_allof():
    sim = Simulator()

    def proc():
        res = yield AllOf([AllOf([Timeout(1.0), Timeout(2.0)]), Timeout(3.0)])
        return (res, sim.now)

    p = spawn(sim, proc())
    sim.run()
    assert p.value == ([[None, None], None], 3.0)


def test_exception_in_process_propagates():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        raise ValueError("boom")

    spawn(sim, proc())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


# ---------------------------------------------------------------------- #
# bare-number yields: the same wait as Timeout(dt), without the object
# ---------------------------------------------------------------------- #
def test_bare_float_yield_is_a_timeout():
    sim = Simulator()
    seen = []

    def proc():
        seen.append((yield 3.0))  # resumes with None, like Timeout
        seen.append(sim.now)
        sim.schedule(0.0, seen.append, "queued first")
        yield 0.0  # zero delay: still one event, behind what is queued
        seen.append(sim.now)
        yield 2  # ints take the slow path to the same place
        seen.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert seen == [None, 3.0, "queued first", 3.0, 5.0]


@pytest.mark.parametrize("bad", [-1.0, -1e-9, -3, float("-inf")])
def test_negative_bare_yield_raises(bad):
    sim = Simulator()

    def proc():
        yield bad

    spawn(sim, proc())
    with pytest.raises(ProcessError, match="negative timeout"):
        sim.run()


def test_bare_float_inside_combinators():
    sim = Simulator()
    sig = Signal(sim)
    out = []

    def proc():
        out.append((yield AnyOf([sig, 4.0])))
        out.append((yield AllOf([1.0, Timeout(2.0)])))
        out.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert out == [(1, None), [None, None], 6.0]


def _interleaving_trace(backend, delays, as_timeout):
    """Run one process per delay list; ``as_timeout[i][j]`` picks the
    spelling of each wait.  Returns the resume order and kernel stats."""
    sim = Simulator(backend=backend)
    trace = []

    def proc(pid, waits, spellings):
        for dt, wrapped in zip(waits, spellings):
            yield Timeout(dt) if wrapped else dt
            trace.append((pid, sim.now))

    for pid, (waits, spellings) in enumerate(zip(delays, as_timeout)):
        spawn(sim, proc(pid, waits, spellings))
    sim.run()
    return trace, sim.events_executed, sim.now


def test_timeout_and_bare_float_interleave_identically_on_every_backend():
    """Differential: any mix of the two spellings schedules the same
    events in the same order, on heap and native alike."""
    import random

    from repro.sim.backend import available_backends

    rng = random.Random(13)
    # many equal delays, so ordering rests on scheduling sequence numbers
    delays = [[rng.choice([0.0, 0.5, 0.5, 1.25]) for _ in range(12)] for _ in range(6)]
    all_wrapped = [[True] * 12 for _ in delays]
    all_bare = [[False] * 12 for _ in delays]
    mixed = [[rng.random() < 0.5 for _ in range(12)] for _ in delays]
    reference = _interleaving_trace("heap", delays, all_wrapped)
    assert len(reference[0]) == 72
    for backend in available_backends():
        for spelling in (all_wrapped, all_bare, mixed):
            assert _interleaving_trace(backend, delays, spelling) == reference


# ---------------------------------------------------------------------- #
# Signal.fire with nobody waiting (every Host.wake of a running pump)
# ---------------------------------------------------------------------- #
def test_fire_without_waiters_counts_and_keeps_later_waiters():
    sim = Simulator()
    sig = Signal(sim)
    assert sig.fire("nobody") == 0 and sig.fire_count == 1
    got = []
    sig.wait(got.append)
    assert sig.fire("first") == 1 and got == ["first"]
    assert sig.fire("again") == 0 and got == ["first"]
    assert sig.fire_count == 3


def test_waiter_registered_during_fire_waits_for_the_next_one():
    sim = Simulator()
    sig = Signal(sim)
    got = []

    def rearm(value):
        got.append(value)
        sig.wait(got.append)

    sig.wait(rearm)
    assert sig.fire(1) == 1 and got == [1]
    assert sig.fire(2) == 1 and got == [1, 2]  # the waiter rearmed inside fire


# ---------------------------------------------------------------------- #
# what a wait allocates: one resume callable per process, no closures
# ---------------------------------------------------------------------- #
def test_delays_of_one_process_schedule_one_callable():
    sim = Simulator(backend="heap")
    scheduled = []
    schedule = sim.schedule

    def spy(delay, fn, *args):
        scheduled.append(fn)
        return schedule(delay, fn, *args)

    def proc():
        yield 1.0
        yield Timeout(2.0)

    p = spawn(sim, proc())
    sim.schedule = spy  # after spawn: only the two delays are seen
    sim.run()
    assert p.done and sim.now == 3.0
    assert len(scheduled) == 2 and scheduled[0] is scheduled[1]


def test_delays_of_one_native_process_resume_one_callable():
    """The native core pushes a delay itself, with no ``schedule`` call to
    spy on: the one resume is the process's ``_resume`` from start to
    finish, and each delay is one event."""
    from repro.sim.backend import native_available

    if not native_available():
        pytest.skip("native kernel unavailable")
    sim = Simulator(backend="native")
    resumes = []

    def proc():
        resumes.append(p._resume)
        yield 1.0
        resumes.append(p._resume)
        yield Timeout(2.0)
        resumes.append(p._resume)

    p = spawn(sim, proc())
    resume = p._resume
    assert type(resume).__name__ == "Resume"
    sim.run()
    assert p.done and sim.now == 3.0
    assert all(r is resume for r in resumes) and p._resume is None
    assert sim.events_executed == 3  # the start and the two delays


def _closures():
    """Live functions and cells (what a closure-per-wait would leave)."""
    return sum(1 for o in gc.get_objects() if type(o).__name__ in ("function", "cell"))


def test_allof_over_two_pending_requests_registers_no_function_or_cell():
    from repro.core.request import RecvRequest

    sim = Simulator()
    reqs = [RecvRequest(sim, 1, 0, seq) for seq in range(2)]

    def proc():
        return (yield AllOf(reqs))

    p = spawn(sim, proc())
    gc.collect()
    before = _closures()
    sim.run()  # the process starts and arms its AllOf
    assert not p.done and all(r._waiter is not None for r in reqs)
    assert _closures() == before
    for r in reqs:
        r._complete()
    assert p.value == reqs and all(r._waiter is None for r in reqs)


def test_a_finished_process_holds_no_callable():
    sim = Simulator()

    def child():
        yield 1.0
        return "kid"

    def proc():
        kid = spawn(sim, child())
        yield AllOf([kid, Timeout(2.0)])
        yield kid
        return "parent"

    p = spawn(sim, proc())
    sim.run()
    assert p.done and p.value == "parent"
    held = [r for r in gc.get_referents(p) if r is not Process]
    assert held and not any(callable(r) for r in held)


# ---------------------------------------------------------------------- #
# a finished child resumes its waiter at once, without nesting a frame
# ---------------------------------------------------------------------- #
_FINISHED_CHILDREN = 3_000  # 332 overflowed the stack while each one nested


@pytest.mark.parametrize("shape", ["alone", "allof", "anyof"])
@pytest.mark.parametrize("backend", ["heap", "native"])
def test_many_finished_children_resume_flat(backend, shape):
    from repro.sim.backend import available_backends

    if backend not in available_backends():
        pytest.skip(f"{backend} kernel unavailable")
    sim = Simulator(backend=backend)

    def child(i):
        return i
        yield  # pragma: no cover

    def proc():
        kids = [spawn(sim, child(i)) for i in range(_FINISHED_CHILDREN)]
        yield 1.0  # every child finishes first
        got = []
        for kid in kids:
            if shape == "alone":
                got.append((yield kid))
            elif shape == "allof":
                got.extend((yield AllOf([kid])))
            else:
                got.append((yield AnyOf([kid, Timeout(5.0)]))[1])
        return got, sim.now

    p = spawn(sim, proc())
    sim.run()
    assert p.value == (list(range(_FINISHED_CHILDREN)), 1.0)
    # the children, the parent and its one delay: a resume adds no event
    assert sim.events_executed == _FINISHED_CHILDREN + 2
