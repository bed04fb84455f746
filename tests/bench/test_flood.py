"""Tests for the streaming (flood) workload."""

import pytest

from repro import Session
from repro.bench.flood import FloodResult, run_flood
from repro.util.errors import BenchError
from repro.util.units import KB, MB


def test_result_accounting(mx_plat):
    res = run_flood(Session(mx_plat, strategy="aggreg"), size=1024, count=16, window=4)
    assert res.total_bytes == 16 * 1024
    assert res.throughput_MBps > 0
    assert res.message_rate_per_ms > 0


def test_all_messages_delivered(plat2):
    session = Session(plat2, strategy="greedy")
    run_flood(session, size=4 * KB, count=32, window=8)
    assert session.counters(1)["segments_submitted"] == 0  # receiver sent nothing
    assert session.counters(0)["segments_submitted"] == 32
    for engine in session.engines:
        assert engine.matching.unexpected_count == 0


def test_window_one_serializes(mx_plat):
    """window=1 degenerates to send-and-wait: slower than a deep window."""
    fast = run_flood(Session(mx_plat, strategy="aggreg"), size=2 * KB, count=24, window=12)
    slow = run_flood(Session(mx_plat, strategy="aggreg"), size=2 * KB, count=24, window=1)
    assert fast.elapsed_us < slow.elapsed_us


def test_deep_window_enables_aggregation(mx_plat):
    """Backlogs only exist when several sends are outstanding."""
    session = Session(mx_plat, strategy="aggreg")
    run_flood(session, size=512, count=32, window=16)
    deep = session.counters()["aggregated_segments"]
    session2 = Session(mx_plat, strategy="aggreg")
    run_flood(session2, size=512, count=32, window=1)
    shallow = session2.counters()["aggregated_segments"]
    assert deep > shallow


def test_multirail_flood_uses_both_rails(plat2):
    session = Session(plat2, strategy="greedy")
    res = run_flood(session, size=256 * KB, count=16, window=8)
    eng = session.engine(0)
    assert eng.drivers[0].dma_started > 0
    assert eng.drivers[1].dma_started > 0
    # sustained throughput approaches the aggregate ping-pong ceiling
    assert res.throughput_MBps > 1300


def test_flood_beats_pingpong_throughput(plat2):
    """Pipelining hides the handshake: flood > pingpong bandwidth."""
    from repro import run_pingpong

    flood = run_flood(Session(plat2, strategy="greedy"), size=256 * KB, count=16, window=8)
    pp = run_pingpong(Session(plat2, strategy="greedy"), 256 * KB, segments=2, reps=3)
    assert flood.throughput_MBps > pp.bandwidth_MBps


def test_bad_parameters(mx_plat):
    session = Session(mx_plat)
    with pytest.raises(BenchError):
        run_flood(session, size=10, count=0)
    with pytest.raises(BenchError):
        run_flood(session, size=10, count=1, window=0)
    with pytest.raises(BenchError):
        run_flood(session, size=-1)


def test_window_rearm_leaves_one_callback_per_completion(plat2, monkeypatch):
    """``run_flood`` re-arms ``AnyOf`` over its whole window each turn.
    The winner withdraws the losers, so a completing request finds the one
    live waiter — not one dead callback per earlier turn (16 per
    completion at window 32 when ``AnyOf`` abandoned its losers)."""
    from repro.core.request import Request

    completions = callbacks = 0
    complete = Request._complete

    def counting_complete(self):
        nonlocal completions, callbacks
        waiter = self._waiter
        completions += 1
        callbacks += len(waiter) if type(waiter) is list else waiter is not None
        complete(self)

    monkeypatch.setattr(Request, "_complete", counting_complete)
    run_flood(Session(plat2, strategy="aggreg_multirail"), 512, count=2000, window=32)
    assert completions == 4000  # every send and every receive
    assert 0 < callbacks <= 2 * completions
