"""Tests for the strategy contract checker."""

import pytest

from repro import Session, run_pingpong
from repro.core.packet import EagerEntry, Payload
from repro.core.strategies import (
    AggregMultirailStrategy,
    CheckedStrategy,
    GreedyStrategy,
    available_strategies,
)
from repro.util.errors import StrategyError
from repro.util.units import KB, MB


@pytest.mark.parametrize("inner", sorted(set(available_strategies()) - {"checked"}))
def test_every_builtin_strategy_passes_the_checker(plat2, inner, samples):
    opts = {}
    session = Session(
        plat2,
        strategy=CheckedStrategy.wrapping(inner),
        samples=samples if inner == "split_balance" else None,
    )
    run_pingpong(session, 1024, segments=4, reps=2)
    run_pingpong(session, 2 * MB, segments=2, reps=1)
    for engine in session.engines:
        engine.strategy.assert_drained()


def test_checker_reports_inner_name(plat2):
    session = Session(plat2, strategy=CheckedStrategy.wrapping("greedy"))
    assert session.engine(0).strategy.name == "checked(greedy)"


def test_checker_catches_wrong_rail_binding(plat2):
    class WrongRail(GreedyStrategy):
        name = "wrong_rail"

        def try_and_commit(self, engine, driver):
            pw = super().try_and_commit(engine, driver)
            if pw is not None:
                pw.rail_index = (pw.rail_index + 1) % engine.platform.n_rails
            return pw

    session = Session(plat2, strategy=CheckedStrategy.wrapping(WrongRail))
    session.interface(0).isend(1, 1, b"x")
    with pytest.raises(StrategyError, match="bound to rail"):
        session.run_until_idle()


def test_checker_catches_oversized_wrapper(plat2):
    class Oversized(GreedyStrategy):
        name = "oversized"

        def try_and_commit(self, engine, driver):
            pw = super().try_and_commit(engine, driver)
            if pw is not None and pw.data_count:
                pw.add(EagerEntry(tag=99, seq=0, payload=Payload.virtual(64 * KB)))
            return pw

    session = Session(plat2, strategy=CheckedStrategy.wrapping(Oversized))
    session.interface(0).isend(1, 1, b"x")
    with pytest.raises(StrategyError, match="eager limit"):
        session.run_until_idle()


def test_checker_catches_invented_requests(plat2):
    from repro.core.request import SendRequest

    class Inventor(GreedyStrategy):
        name = "inventor"

        def try_and_commit(self, engine, driver):
            pw = super().try_and_commit(engine, driver)
            if pw is not None and pw.send_requests:
                pw.send_requests.append(
                    SendRequest(engine.sim, 1, 0, 0, Payload.virtual(1))
                )
            return pw

    session = Session(plat2, strategy=CheckedStrategy.wrapping(Inventor))
    session.interface(0).isend(1, 1, b"x")
    with pytest.raises(StrategyError):
        session.run_until_idle()


def test_checker_catches_dropped_segments(plat2):
    class BlackHole(GreedyStrategy):
        name = "black_hole"

        def pack(self, engine, request):
            pass  # silently discards everything

    session = Session(plat2, strategy=CheckedStrategy.wrapping(BlackHole))
    session.interface(0).isend(1, 1, b"x")
    session.run_until_idle()
    with pytest.raises(StrategyError, match="still holds"):
        session.engine(0).strategy.assert_drained()


class _FalselyQuiet(GreedyStrategy):
    """Claims to hold nothing the moment a segment is queued."""

    name = "falsely_quiet"

    def pack(self, engine, request):
        super().pack(engine, request)
        self.quiet = True


def test_checker_catches_quiet_with_work(plat2):
    """The pump skips a strategy that reads ``quiet``; the checker consults
    it anyway and reports what the pump would have left unsent."""
    session = Session(
        plat2, strategy=CheckedStrategy.wrapping(_FalselyQuiet, record_only=True)
    )
    send = session.interface(0).isend(1, 7, b"x")
    session.run_until_idle()
    assert send.done  # under the checker the segment still leaves
    [violation] = session.engine(0).strategy.violations
    assert violation.invariant == "quiet-with-work"
    assert "returned a wrapper" in violation.message
    assert dict(violation.context) == {
        "rail": "qsnet2", "dst": 1, "entry": "EagerEntry", "tag": 7, "seq": 0,
        "backlog": "1->0",
    }


def test_quiet_with_work_raises_at_the_consultation(plat2):
    session = Session(plat2, strategy=CheckedStrategy.wrapping(_FalselyQuiet))
    session.interface(0).isend(1, 7, b"x")
    with pytest.raises(StrategyError, match=r"quiet-with-work.*rail=qsnet2.*tag=7"):
        session.run_until_idle()


def test_unchecked_quiet_strategy_is_not_consulted(plat2):
    """What the clause guards against: without the checker the pump takes
    the flag at its word and the segment never leaves."""
    session = Session(plat2, strategy=_FalselyQuiet)
    send = session.interface(0).isend(1, 7, b"x")
    session.run_until_idle()
    assert not send.done and session.engine(0).strategy.backlog == 1


class _FalselyDmaBound(AggregMultirailStrategy):
    """Claims that all it holds waits for a DMA engine, small segments too."""

    name = "falsely_dma_bound"

    def pack(self, engine, request):
        super().pack(engine, request)
        self.dma_bound = True


def _small_behind_a_rendezvous(session):
    """A 2 MB segment takes the fastest rail's DMA engine, then a small
    segment is queued while that engine is busy."""
    sends = []
    session.interface(1).irecv(0, 1)

    def app():
        sends.append(session.interface(0).isend(1, 1, 2 * MB))
        yield 5.0
        sends.append(session.interface(0).isend(1, 7, b"x"))

    session.spawn(app())
    session.run(until=50.0)
    assert session.engine(0).driver(1).nic.dma_busy  # qsnet2, the fastest
    return sends


def test_checker_catches_dma_bound_with_work(plat2):
    """The pump skips a DMA-bound strategy for a DMA-busy rail; the checker
    consults it anyway and reports the small segment the pump would have
    left waiting for the DMA engine."""
    session = Session(
        plat2, strategy=CheckedStrategy.wrapping(_FalselyDmaBound, record_only=True)
    )
    _, small = _small_behind_a_rendezvous(session)
    assert small.done  # under the checker the segment still leaves
    violations = session.engine(0).strategy.violations
    assert {v.invariant for v in violations} == {"dma-bound-with-work"}
    holds = [v for v in violations if "small segments" in v.message]
    answered = [v for v in violations if "returned a wrapper" in v.message]
    assert holds and dict(holds[0].context)["small_segments"] == ((1, 7, 0),)
    assert len(answered) == 1
    assert dict(answered[0].context) == {
        "rail": "qsnet2", "dst": 1, "entry": "EagerEntry", "tag": 7, "seq": 0,
        "backlog": "1->0",
    }


def test_dma_bound_with_work_raises_at_the_consultation(plat2):
    session = Session(plat2, strategy=CheckedStrategy.wrapping(_FalselyDmaBound))
    with pytest.raises(StrategyError, match=r"dma-bound-with-work.*small_segments"):
        _small_behind_a_rendezvous(session)


def test_unchecked_dma_bound_strategy_is_not_consulted_for_a_busy_rail(plat2):
    """What the clause guards against: without the checker the small
    segment waits for the fastest rail's DMA engine to drain 2 MB."""
    session = Session(plat2, strategy=_FalselyDmaBound)
    _, small = _small_behind_a_rendezvous(session)
    assert not small.done and session.engine(0).strategy.backlog == 1
    session.run_until_idle()
    assert small.done


def test_factory_returning_non_strategy_rejected():
    from repro.core.strategies import make_strategy

    with pytest.raises(StrategyError, match="not a Strategy"):
        make_strategy(lambda: object())
