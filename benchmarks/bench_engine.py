"""The engine suite's two simulated ping-pong points, under pytest-benchmark.

Workloads (and record names) mirror ``repro.obs.perf.ENGINE_BENCHES`` so
the ``BENCH_pytest.json`` this session writes can be compared against a
``repro bench run --engine`` record.  The bare event-kernel and
flow-reallocation loops are ``hostbench``'s ``sim.engine.probe_events_per_s``
and ``sim.flows.probe_reallocs_per_s`` probes.
"""

from repro import Session, paper_platform, run_pingpong
from repro.obs.perf import pingpong_point
from repro.util.units import MB


def test_pingpong_simulation_cost(benchmark, recorder):
    """Full 2-rail split ping-pong at 1 MB: build + simulate."""

    def run():
        session = Session(paper_platform(), strategy="greedy")
        return run_pingpong(session, 1 * MB, segments=2, reps=2, warmup=1)

    result = benchmark(run)
    assert result.bandwidth_MBps > 1000
    recorder.record_point(pingpong_point(result, bench="engine.pingpong_1MB_greedy"))


def test_small_message_simulation_cost(benchmark, recorder):
    """Latency-regime ping-pong: many sweeps, no flows."""

    def run():
        session = Session(paper_platform(), strategy="aggreg_multirail")
        return run_pingpong(session, 64, segments=4, reps=10, warmup=2)

    result = benchmark(run)
    assert result.one_way_us < 10
    recorder.record_point(
        pingpong_point(result, bench="engine.pingpong_64B_aggreg_multirail")
    )
