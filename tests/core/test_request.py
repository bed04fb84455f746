"""Unit tests for request handles."""

import gc

import pytest

from repro.core.packet import Payload
from repro.core.request import MultiRequest, RecvRequest, SendRequest
from repro.sim import AllOf, AnyOf, Signal, Simulator, Timeout, spawn
from repro.util.errors import ApiError


@pytest.fixture()
def sim():
    return Simulator()


class TestRequest:
    def test_completion_is_the_request_while_pending(self, sim):
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(10))
        assert r.completion is r
        r._complete()
        assert isinstance(r.completion, Timeout) and r.completion.dt == 0.0

    def test_elapsed(self, sim):
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(10))
        sim.schedule(5.0, r._complete)
        sim.run()
        assert r.elapsed_us == pytest.approx(5.0)

    def test_elapsed_before_completion_raises(self, sim):
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(10))
        with pytest.raises(ApiError):
            _ = r.elapsed_us

    def test_double_complete_rejected(self, sim):
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(10))
        r._complete()
        with pytest.raises(ApiError):
            r._complete()

    def test_process_waits_on_completion(self, sim):
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(10))
        times = []

        def proc():
            yield r.completion
            times.append(sim.now)

        spawn(sim, proc())
        sim.schedule(3.0, r._complete)
        sim.run()
        assert times == [3.0]

    def test_wait_on_already_done_request(self, sim):
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(10))
        r._complete()
        done = []

        def proc():
            yield r.completion
            done.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert done == [0.0]


class TestRecvRequest:
    def test_deliver_sets_payload_and_completes(self, sim):
        r = RecvRequest(sim, 0, 1, -1)
        r._deliver(Payload.of(b"data"))
        assert r.done and r.data == b"data"

    def test_double_deliver_rejected(self, sim):
        r = RecvRequest(sim, 0, 1, -1)
        r._deliver(Payload.of(b"x"))
        with pytest.raises(ApiError):
            r._deliver(Payload.of(b"y"))

    def test_data_none_for_virtual(self, sim):
        r = RecvRequest(sim, 0, 1, -1)
        assert r.data is None
        r._deliver(Payload.virtual(5))
        assert r.data is None and r.payload.size == 5


class TestMultiRequest:
    def test_done_and_completed_at(self, sim):
        rs = [SendRequest(sim, 1, 0, i, Payload.virtual(1)) for i in range(3)]
        multi = MultiRequest(rs)
        assert not multi.done
        for i, r in enumerate(rs):
            sim.schedule(float(i + 1), r._complete)
        sim.run()
        assert multi.done
        assert multi.completed_at == pytest.approx(3.0)
        assert len(multi) == 3 and list(multi) == rs

    def test_completed_at_before_done_raises(self, sim):
        multi = MultiRequest([SendRequest(sim, 1, 0, 0, Payload.virtual(1))])
        with pytest.raises(ApiError):
            _ = multi.completed_at

    def test_empty_rejected(self):
        with pytest.raises(ApiError):
            MultiRequest([])

    def test_completion_waits_for_all(self, sim):
        rs = [SendRequest(sim, 1, 0, i, Payload.virtual(1)) for i in range(2)]
        multi = MultiRequest(rs)
        times = []

        def proc():
            yield multi.completion
            times.append(sim.now)

        spawn(sim, proc())
        sim.schedule(2.0, rs[0]._complete)
        sim.schedule(7.0, rs[1]._complete)
        sim.run()
        assert times == [7.0]


class TestLazySignal:
    """A request never owns a Signal: it is its own one-shot waitable, and
    its waiter slot is filled only while somebody is waiting."""

    def test_request_never_waited_on_allocates_no_signal(self, sim):
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(10))
        assert r._waiter is None
        r._complete()
        assert r.done and r._waiter is None
        # asking after completion takes the Timeout(0) path: still none
        assert isinstance(r.completion, Timeout) and r._waiter is None

    def test_engine_requests_stay_signal_free_until_waited(self, session2):
        a, b = session2.interface(0), session2.interface(1)
        recvs = [b.irecv(0, 4) for _ in range(8)]
        sends = [a.isend(1, 4, 64) for _ in range(8)]
        session2.run_until_idle()
        assert all(r.done and r._waiter is None for r in sends + recvs)

    def test_completion_hands_out_one_waitable(self, sim):
        r = RecvRequest(sim, 0, 1, -1)
        assert r.completion is r.completion is r
        other = RecvRequest(sim, 0, 1, -1)
        r._deliver(Payload.of(b"x"))
        other._deliver(Payload.of(b"y"))
        # ... and once done every request hands out the same zero timeout
        assert r.completion is r.completion is other.completion

    @pytest.mark.parametrize("complete_at", [None, 4.0])
    def test_yielding_the_request_is_yielding_its_completion(self, sim, complete_at):
        """``yield req`` and ``yield req.completion`` resume at the same
        time with the same value, pending (the request) or done (None)."""
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(1))
        got = []

        def proc(name, waitable):
            got.append((name, (yield waitable()), sim.now))

        if complete_at is None:
            r._complete()
        else:
            sim.schedule(complete_at, r._complete)
        spawn(sim, proc("req", lambda: r))
        spawn(sim, proc("completion", lambda: r.completion))
        sim.run()
        value, when = (None, 0.0) if complete_at is None else (r, complete_at)
        assert got == [("req", value, when), ("completion", value, when)]

    def test_waiting_on_a_done_request_goes_through_an_event(self, sim):
        """Same simulated time, one kernel event later — never a
        synchronous call into the generator that is asking."""
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(1))
        stale = r.completion  # taken while pending, waited on after the fact
        got = []

        def proc():
            yield Timeout(2.0)
            r._complete()
            r.wait(got.append)
            assert got == []  # not run from inside wait()
            before = sim.events_executed
            got.append((yield stale))
            got.append((sim.now, sim.events_executed - before))

        p = spawn(sim, proc())
        sim.run()
        # the callback's event, then ours: FIFO at equal time
        assert p.done and got == [None, None, (2.0, 2)]
        assert r._waiter is None

    def test_wait_then_complete_passes_the_request(self, sim):
        r = RecvRequest(sim, 0, 1, -1)
        got = []

        def proc():
            got.append((yield r.completion))
            got.append(sim.now)

        spawn(sim, proc())
        sim.schedule(4.0, r._deliver, Payload.of(b"x"))
        sim.run()
        assert got == [r, 4.0]

    def test_several_waiters_all_resume_in_registration_order(self, sim):
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(1))
        woke = []

        def proc(name):
            yield r.completion
            woke.append((name, sim.now))

        for name in "abc":
            spawn(sim, proc(name))
        sim.schedule(2.5, r._complete)
        sim.run()
        assert woke == [("a", 2.5), ("b", 2.5), ("c", 2.5)]
        assert r._waiter is None

    def test_double_completion_raises_with_and_without_signal(self, sim):
        waited = SendRequest(sim, 1, 0, 0, Payload.virtual(1))
        waited.wait(lambda _req: None)
        for r in (waited, SendRequest(sim, 1, 0, 1, Payload.virtual(1))):
            r._complete()
            with pytest.raises(ApiError, match="completed twice"):
                r._complete()

    @pytest.mark.parametrize("combinator", ["allof", "anyof", "multi"])
    def test_combinators_over_mixed_done_and_pending(self, sim, combinator):
        rs = [SendRequest(sim, 1, 0, i, Payload.virtual(1)) for i in range(3)]
        rs[0]._complete()  # done before anybody waits
        out = []

        def proc():
            if combinator == "allof":
                out.append((yield AllOf([r.completion for r in rs])))
            elif combinator == "anyof":
                out.append((yield AnyOf([r.completion for r in rs[1:]])))
            else:
                out.append((yield MultiRequest(rs).completion))
            out.append(sim.now)

        spawn(sim, proc())
        sim.schedule(3.0, rs[2]._complete)
        sim.schedule(6.0, rs[1]._complete)
        sim.run()
        if combinator == "anyof":
            assert out == [(1, rs[2]), 3.0]
        else:
            assert out == [[None, rs[1], rs[2]], 6.0]
        # finished, every one of them holds nothing: neither the waited-on
        # two nor (anyof) the loser whose wait was withdrawn at t=3
        assert all(r.done and r._waiter is None for r in rs)

    @pytest.mark.parametrize("how", ["one", "three", "allof", "anyof_loser"])
    def test_finished_request_references_no_waiter(self, sim, how):
        """A completed message costs the heap the handle its caller keeps,
        nothing else: no callback, no list, no Signal hangs off it."""
        r = SendRequest(sim, 1, 0, 0, Payload.virtual(1))
        other = SendRequest(sim, 1, 0, 1, Payload.virtual(1))

        def proc():
            if how == "allof":
                yield AllOf([r.completion, other.completion])
            elif how == "anyof_loser":
                assert (yield AnyOf([r.completion, other.completion]))[0] == 1
                assert r._waiter is None  # withdrawn by the winner
            else:
                yield r.completion

        procs = [spawn(sim, proc()) for _ in range(3 if how == "three" else 1)]
        sim.schedule(1.0, other._complete)
        sim.schedule(2.0, r._complete)
        sim.run()
        assert all(p.done for p in procs) and r.done
        held = [
            x for x in gc.get_referents(r)
            if isinstance(x, (list, Signal)) or (callable(x) and x is not type(r))
        ]
        assert held == [] and r._waiter is None
