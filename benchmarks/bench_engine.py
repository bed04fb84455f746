"""Micro-benchmarks of the simulation substrate itself (wall-clock).

These are the only benchmarks where pytest-benchmark's timing is the
point: they track the Python-level cost of the event kernel, the max-min
fair reallocation, and a full ping-pong simulation, so regressions in the
substrate (which every figure depends on) are visible.

Workloads (and record names) mirror ``repro.obs.perf.ENGINE_BENCHES`` so
the ``BENCH_pytest.json`` this session writes can be compared against a
``repro bench run --engine`` record.
"""

import random

from repro import Session, paper_platform, run_pingpong
from repro.obs.perf import pingpong_point
from repro.sim import FlowNetwork, Link, Simulator
from repro.util.units import MB


def test_event_kernel_throughput(benchmark, record_wall):
    """Schedule + dispatch 10k chained events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run_until_idle()
        return count[0]

    assert benchmark(run) == 10_000
    record_wall("engine.event_kernel_10k", benchmark)


def test_event_kernel_mixed_100k(benchmark, record_wall):
    """100k-event spread + cancellation churn (the backend stress shape).

    Seeded, so every backend executes the identical event sequence; this
    is the bench that feeds the ``engine.events_per_sec`` headline.
    """

    def run():
        sim = Simulator()
        rng = random.Random(20260807)
        count = [0]
        pending = []

        def tick():
            count[0] += 1
            if count[0] < 100_000:
                pending.append(sim.schedule(rng.random() * 200.0, tick))
                if count[0] % 3 == 0:
                    pending.append(sim.schedule(rng.random() * 200.0, tick))
                if len(pending) > 64:
                    pending.pop(rng.randrange(len(pending))).cancel()

        for _ in range(512):
            sim.schedule(rng.random() * 200.0, tick)
        sim.run_until_idle(max_events=400_000)
        return count[0]

    assert benchmark(run) == 100_000
    record_wall("engine.event_kernel_100k", benchmark)


def _flow_reallocation(n_flows):
    sim = Simulator()
    net = FlowNetwork(sim)
    bus = Link("bus", 1000.0)
    rails = [Link(f"r{i}", 400.0) for i in range(8)]
    for i in range(n_flows):
        net.start_flow([bus, rails[i % 8]], size=10_000.0 + i)
    sim.run_until_idle()
    return net.completed_count


def test_flow_reallocation(benchmark, record_wall):
    """Start/complete 200 flows sharing a bus (quadratic reallocation)."""

    assert benchmark(lambda: _flow_reallocation(200)) == 200
    record_wall("engine.flow_reallocation_200", benchmark)


def test_flow_reallocation_1000(benchmark, record_wall):
    """1000-flow variant: one component far larger than any workload builds."""

    assert benchmark(lambda: _flow_reallocation(1000)) == 1000
    record_wall("engine.flow_reallocation_1000", benchmark)


def test_pingpong_simulation_cost(benchmark, record_wall, recorder):
    """Full 2-rail split ping-pong at 1 MB: build + simulate."""

    def run():
        session = Session(paper_platform(), strategy="greedy")
        return run_pingpong(session, 1 * MB, segments=2, reps=2, warmup=1)

    result = benchmark(run)
    assert result.bandwidth_MBps > 1000
    record_wall("engine.pingpong_1MB_greedy", benchmark)
    recorder.record_point(pingpong_point(result, bench="engine.pingpong_1MB_greedy"))


def test_traced_pingpong_simulation_cost(benchmark, record_wall):
    """Same ping-pong with span tracing on — tracks the observability tax.

    Compare against ``test_pingpong_simulation_cost``: spans + per-request
    bookkeeping should stay well under 2x the untraced run.
    """

    def run():
        session = Session(paper_platform(), strategy="greedy", trace=True)
        res = run_pingpong(session, 1 * MB, segments=2, reps=2, warmup=1)
        return res, len(session.spans)

    result, n_spans = benchmark(run)
    assert result.bandwidth_MBps > 1000
    assert n_spans > 0
    record_wall("engine.pingpong_1MB_greedy_traced", benchmark)


def test_small_message_simulation_cost(benchmark, record_wall, recorder):
    """Latency-regime ping-pong: many sweeps, no flows."""

    def run():
        session = Session(paper_platform(), strategy="aggreg_multirail")
        return run_pingpong(session, 64, segments=4, reps=10, warmup=2)

    result = benchmark(run)
    assert result.one_way_us < 10
    record_wall("engine.pingpong_64B_aggreg_multirail", benchmark)
    recorder.record_point(
        pingpong_point(result, bench="engine.pingpong_64B_aggreg_multirail")
    )
