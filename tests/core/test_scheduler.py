"""Unit/behaviour tests for the NIC-driven core scheduler (pump)."""

import json
from pathlib import Path

import pytest

from repro import Session, paper_platform, run_pingpong
from repro.core.packet import Payload
from repro.core.strategies import strategy_class
from repro.core.strategies.base import Strategy
from repro.drivers.base import Driver
from repro.hardware.nic import NIC
from repro.sim.process import Signal
from repro.util.errors import ApiError, ProtocolError

from . import ask_first_capture as ask_first


@pytest.fixture()
def session(plat2):
    return Session(plat2, strategy="aggreg_multirail")


class TestSubmissionApi:
    def test_submit_returns_live_request(self, session):
        req = session.engine(0).submit(1, 3, Payload.of(b"x"))
        assert not req.done and req.peer == 1 and req.tag == 3 and req.seq == 0

    def test_submit_to_self_rejected(self, session):
        with pytest.raises(ApiError):
            session.engine(0).submit(0, 1, Payload.of(b"x"))

    def test_submit_to_unknown_node_rejected(self, session):
        with pytest.raises(ApiError):
            session.engine(0).submit(5, 1, Payload.of(b"x"))

    def test_recv_from_self_rejected(self, session):
        with pytest.raises(ApiError):
            session.engine(0).post_recv(0, 1)

    def test_channels_created_on_first_submit(self, session):
        engine = session.engine(0)
        assert engine._seq_out == {}
        engine.submit(1, 0, Payload.virtual(1))
        engine.submit(1, 2, Payload.virtual(1))
        engine.submit(1, 2, Payload.virtual(1))
        n = session.n_nodes  # a channel is ``tag * n_nodes + peer``
        assert engine._seq_out == {0 * n + 1: 1, 2 * n + 1: 2}
        assert engine.counters["segments_submitted"] == 3


class TestPumpBehaviour:
    def test_pump_sleeps_when_idle(self, session):
        """An idle session's event queue drains completely."""
        session.run_until_idle()
        before = session.sim.events_executed
        session.run_until_idle()
        assert session.sim.events_executed == before

    def test_polls_charged_per_sweep(self, session):
        run_pingpong(session, 64, reps=2, warmup=0)
        engine = session.engine(0)
        # both drivers polled the same number of sweeps
        assert engine.drivers[0].polls == engine.drivers[1].polls
        assert engine.counters["polls"] == 2 * engine.counters["sweeps"]

    def test_unexpected_eager_path(self, session):
        """Send before the receive is posted: data parks, then matches."""
        a = session.interface(0)
        b = session.interface(1)
        a.isend(1, 9, b"early bird")
        session.run_until_idle()
        assert session.engine(1).counters["unexpected_eager"] == 1
        req = b.irecv(0, 9)
        assert req.done and req.data == b"early bird"
        assert session.engine(1).counters["unexpected_matches"] == 1

    def test_send_request_completes_after_post(self, session):
        req = session.interface(0).isend(1, 1, b"abc")
        session.run_until_idle()
        assert req.done
        assert req.completed_at > 0

    def test_stop_halts_pump(self, session):
        session.engine(1).stop()
        session.interface(0).isend(1, 1, b"into the void")
        session.run_until_idle()
        # delivered to the NIC but never handled
        assert any(d.nic.rx_queue for d in session.engine(1).drivers)

    def test_unknown_packet_rejected(self, session):
        engine = session.engine(0)
        with pytest.raises(ProtocolError):
            engine._handle_packet(engine.drivers[0], object())

    def test_counters_track_traffic(self, session):
        run_pingpong(session, 256, segments=2, reps=3, warmup=1)
        c = session.counters()
        assert c["segments_submitted"] == 2 * 2 * 4  # both sides, 4 rounds
        assert c["eager_rx"] == c["segments_submitted"]
        assert c["packets_committed"] > 0
        assert c["sweeps"] > 0

    def test_commit_order_fastest_rail_first(self, session):
        engine = session.engine(0)
        order = [engine.drivers[i].name for i in engine._order]
        assert order == ["qsnet2", "myri10g"]


class TestLatencyAccounting:
    def test_single_rail_small_message_budget(self, mx_plat):
        """The 2.8us scalar decomposes exactly into the spec costs."""
        session = Session(mx_plat, strategy="single_rail")
        res = run_pingpong(session, 4)
        spec = mx_plat.rails[0]
        expected = (
            spec.post_cost_us
            + (4 + spec.header_bytes) / spec.pio_MBps
            + spec.lat_us
            + spec.poll_cost_us
            + spec.handle_cost_us
            + 4 / mx_plat.host.memcpy_MBps
        )
        assert res.one_way_us == pytest.approx(expected, rel=0.02)

    def test_multirail_pays_idle_poll(self, plat2, elan_plat):
        multi = run_pingpong(Session(plat2, strategy="aggreg_multirail"), 4)
        only = run_pingpong(Session(elan_plat, strategy="aggreg"), 4)
        gap = multi.one_way_us - only.one_way_us
        assert gap == pytest.approx(plat2.rails[0].poll_cost_us, abs=0.05)


# ---------------------------------------------------------------------- #
# accounting invariants of the batched counters — true of any fault-free
# run, at idle and mid-run, independently of any recorded baseline
# ---------------------------------------------------------------------- #
def _pingpong_workload(session):
    a, b = session.interface(0), session.interface(1)
    recvs = []

    def ping():
        for _ in range(20):
            a.isend(1, 1, 64)
            r = a.irecv(1, 2)
            recvs.append(r)
            yield r.completion

    def pong():
        for _ in range(20):
            r = b.irecv(0, 1)
            recvs.append(r)
            yield r.completion
            b.isend(0, 2, 64)

    session.spawn(ping())
    session.spawn(pong())
    return recvs


def _flood_workload(session):
    a, b = session.interface(0), session.interface(1)
    recvs = [b.irecv(0, 3) for _ in range(300)]

    def sender():
        for i in range(300):
            a.isend(1, 3, (8, 512, 4096)[i % 3])
            if i % 25 == 24:
                yield 5.0  # let the backlog drain in bursts

    session.spawn(sender())
    return recvs


def _allreduce_workload(session):
    from repro.mpi.collectives import multilane_allreduce
    from repro.mpi.comm import Communicator

    comm = Communicator(session)

    def rank_body(rank):
        for _ in range(3):
            yield from multilane_allreduce(comm.endpoint(rank), [float(rank)] * 6)

    for rank in range(comm.size):
        session.spawn(rank_body(rank), name=f"rank{rank}")
    return None  # receives are posted inside the collective


def _check_accounting(session, recvs, at_idle):
    n_rails = session.platform.n_rails
    engines = list(session.engines.built())
    for engine in engines:
        c = engine.counters
        announced, done = c["polls"], sum(d.polls for d in engine.drivers)
        # polls are announced per sweep; a pump suspended inside its poll
        # phase has announced polls it has not finished yet
        assert announced == c["sweeps"] * n_rails
        assert 0 <= announced - done < n_rails
        assert c["pump_parks"] - c["pump_wakeups"] in (0, 1)  # 1 = parked now
        if at_idle:
            assert announced == done
            assert c["pump_parks"] - c["pump_wakeups"] == 1
    # the registry restates none of this on the hot path: it is set from
    # the owners (bags, drivers, histograms) by sync_kernel_metrics, which
    # run()/run_until_idle() already called
    snap = session.metrics.snapshot()
    for idx, spec in enumerate(session.platform.spec.rails):
        assert snap[f"engine.poll.count{{rail={spec.name}}}"] == sum(
            e.drivers[idx].polls for e in engines
        )
        assert (
            snap[f"engine.commit.count{{rail={spec.name}}}"]
            == snap[f"engine.commit.wrapper_bytes{{rail={spec.name}}}"]["count"]
            == sum(e.drivers[idx].eager_posted for e in engines)
        )
    assert snap["engine.sweeps"] == sum(e.counters["sweeps"] for e in engines)
    health = session.active_health()
    for key in ("pump_parks", "pump_wakeups"):
        assert snap[f"active.{key}"] == health[key] == sum(
            e.counters[key] for e in engines
        )
    # published values are set, not accumulated: syncing again (and again
    # after the next partial run) never double-adds
    session.sync_kernel_metrics()
    session.sync_kernel_metrics()
    assert session.metrics.snapshot() == snap
    if recvs is not None:
        # eager_rx is counted once per handled wrapper, for all its entries,
        # just before their receives complete
        delivered = sum(1 for r in recvs if r.done)
        eager_rx = session.counters()["eager_rx"]
        assert eager_rx >= delivered
        if at_idle:
            assert eager_rx == delivered == len(recvs)
    if at_idle:  # every message of these workloads is eager-sized
        total = session.counters()
        assert total["eager_rx"] == total["segments_submitted"]


@pytest.mark.parametrize(
    "n_nodes, workload",
    [(2, _pingpong_workload), (2, _flood_workload), (16, _allreduce_workload)],
    ids=["pingpong", "flood", "allreduce16"],
)
def test_counter_accounting_holds_mid_run_and_at_idle(n_nodes, workload):
    session = Session(paper_platform(n_nodes=n_nodes), strategy="aggreg_multirail")
    recvs = workload(session)
    checkpoints = 0
    for until in (0.4, 1.0, 2.3, 5.15, 9.9, 17.0, 33.3, 61.0, 120.0):
        session.run(until=until)
        _check_accounting(session, recvs, at_idle=False)
        checkpoints += session.sim.pending > 0
    assert checkpoints >= 3, "workload finished before the mid-run checks"
    session.run_until_idle()
    _check_accounting(session, recvs, at_idle=True)


# ---------------------------------------------------------------------- #
# ask before you look: the pump skips a consultation, a queue drain and a
# signal fire whose outcome it already knows — counted, never timed, and
# compared against a capture made at the parent commit
# ---------------------------------------------------------------------- #
PARENT = json.loads(
    (Path(__file__).parents[1] / "obs" / "data" / "ask_first_parent.json").read_text()
)
STATIC_STRATEGIES = ("single_rail", "aggreg", "greedy", "aggreg_multirail", "split_balance")


@pytest.fixture()
def tally(monkeypatch):
    """Counts, from outside, the calls the fast paths are meant to avoid."""
    ask_first.samples()  # sampling runs sessions of its own: not counted
    seen = {
        "consults": 0, "consults_while_quiet": 0, "found_empty": 0, "quiet_spells": 0,
        "consults_while_dma_bound": 0, "dma_bound_spells": 0,
        "drains": 0, "poll_frames": 0, "polls_with_packets": 0, "activity_fires": 0,
    }

    def watch_consults(cls):
        inner = cls.try_and_commit

        def try_and_commit(self, engine, driver):
            was_quiet, was_dma_bound = self.quiet, self.dma_bound
            empty = not (self._ctrl_pending or self.backlog)
            seen["consults"] += 1
            seen["consults_while_quiet"] += was_quiet
            seen["consults_while_dma_bound"] += was_dma_bound and not driver.dma_idle
            seen["found_empty"] += empty
            pw = inner(self, engine, driver)
            seen["quiet_spells"] += self.quiet and not was_quiet
            seen["dma_bound_spells"] += self.dma_bound and not was_dma_bound
            assert not (empty and pw is not None)
            return pw

        monkeypatch.setattr(cls, "try_and_commit", try_and_commit)

    for cls in {strategy_class(name) for name in STATIC_STRATEGIES}:
        if "try_and_commit" in vars(cls):
            watch_consults(cls)

    drain_rx, poll, fire = NIC.drain_rx, Driver.poll, Signal.fire

    def counted_drain(self):
        seen["drains"] += 1
        return drain_rx(self)

    def counted_poll(self):
        cost, pkts = poll(self)
        seen["poll_frames"] += 1
        seen["polls_with_packets"] += bool(pkts)
        return cost, pkts

    def counted_fire(self, value=None):
        seen["activity_fires"] += self.name.endswith(".activity")
        return fire(self, value)

    monkeypatch.setattr(NIC, "drain_rx", counted_drain)
    monkeypatch.setattr(Driver, "poll", counted_poll)
    monkeypatch.setattr(Signal, "fire", counted_fire)
    return seen


@pytest.mark.parametrize("scenario", sorted(ask_first.SCENARIOS))
def test_skipped_work_is_counted_exactly_as_at_the_parent(scenario, tally):
    session = ask_first.SCENARIOS[scenario]()
    # every counter a user can read: driver.polls, Session.counters(),
    # active_health(), the metrics snapshot (idle-poll microseconds too)
    assert ask_first.counted(session) == PARENT[scenario]["counted"]
    # an empty queue is not drained — the pump does not even enter
    # Driver.poll for it — yet every poll is still a poll, counted and
    # charged (driver.polls and engine.poll.idle_us above)
    polls = sum(sum(row) for row in PARENT[scenario]["counted"]["driver_polls"])
    assert tally["drains"] == tally["polls_with_packets"] == tally["poll_frames"] < polls
    # Signal.fire runs only when a pump is parked; fire_count says all wakes
    wakeups = session.active_health()["pump_wakeups"]
    assert tally["activity_fires"] == wakeups
    assert wakeups < sum(PARENT[scenario]["counted"]["fire_counts"])
    # a quiet strategy is never consulted, so only the first consultation
    # of a quiet spell finds every queue empty
    assert tally["consults_while_quiet"] == 0
    assert 0 < tally["found_empty"] == tally["quiet_spells"]
    # nor is a DMA-bound strategy consulted for a rail whose DMA engine
    # is taken; only the rendezvous flood holds nothing but large segments
    assert tally["consults_while_dma_bound"] == 0
    assert (tally["dma_bound_spells"] > 0) == (scenario == "rdv_flood")


@pytest.mark.parametrize("scenario", sorted(ask_first.SCENARIOS))
def test_traced_span_stream_equals_the_parents(scenario):
    """Name, track, t0, t1 and arguments of every span — including one
    ``decision`` instant per usable rail per sweep, consulted or not."""
    digest = ask_first.span_digest(ask_first.SCENARIOS[scenario](trace=True))
    assert digest == PARENT[scenario]["traced"]
    assert digest["spans"]["decision"] == digest["spans"]["poll"]


def test_metrics_probe_equals_the_parents():
    from repro.obs.perf import metrics_probe

    assert json.loads(json.dumps(metrics_probe())) == PARENT["metrics_probe"]


@pytest.mark.parametrize("strategy", STATIC_STRATEGIES)
@pytest.mark.parametrize("scenario", ["rdv_flood", "eager_flood"])
def test_each_static_strategy_goes_quiet_and_is_left_alone(scenario, strategy, tally):
    session = ask_first.SCENARIOS[scenario](strategy=strategy)
    assert all(e.strategy.quiet for e in session.engines.built())
    assert tally["consults_while_quiet"] == 0
    assert 0 < tally["found_empty"] == tally["quiet_spells"]
    # the unconsulted sweeps are real: the parent asked on every one
    polls = sum(d.polls for e in session.engines.built() for d in e.drivers)
    assert tally["consults"] < polls


def test_strategies_that_never_go_quiet_are_consulted_on_every_sweep(plat2):
    """`feedback` turns its epoch clock on every consultation, and a user
    strategy written before the flag existed never sets it."""

    class Plain(Strategy):
        name = "plain"

        def __init__(self):
            super().__init__()
            self.queue, self.consults = [], 0

        def pack(self, engine, request):
            self.queue.append(request)

        def try_and_commit(self, engine, driver):
            self.consults += 1
            if not self.queue:
                return None
            request = self.queue.pop(0)
            pw = driver.new_wrapper(request.peer)
            self.append_segment(pw, request)
            return pw

        backlog = property(lambda self: len(self.queue))

    for strategy in (Plain, "feedback"):
        session = Session(plat2, strategy=strategy)
        run_pingpong(session, 64, reps=3, warmup=0)
        for engine in session.engines.built():
            assert not engine.strategy.quiet
            if strategy is Plain:  # one consultation per rail per sweep
                assert engine.strategy.consults == engine.counters["polls"]
