"""The engine suite's two simulated ping-pong points, under pytest-benchmark.

The workloads (and record names) are the rows of
``repro.bench.suites.ENGINE_CELLS``, so the ``BENCH_pytest.json`` this
session writes can be compared against a ``repro bench run --engine``
record.  The bare event-kernel and flow-reallocation loops are
``hostbench``'s ``sim.engine.probe_events_per_s`` and
``sim.flows.probe_reallocs_per_s`` probes.
"""

import pytest

from repro.bench.pingpong import PingPongResult
from repro.bench.suites import ENGINE_CELLS, SUITES, run_engine_cell

#: what each engine point must show, by bench name: the 1 MB greedy
#: ping-pong is in the bandwidth regime (build + simulate a full 2-rail
#: split), the 64 B aggregated one in the latency regime (many sweeps, no
#: flows)
EXPECT = {
    "pingpong_1MB_greedy": lambda result: result.bandwidth_MBps > 1000,
    "pingpong_64B_aggreg_multirail": lambda result: result.one_way_us < 10,
}


def test_every_engine_cell_has_an_expectation():
    assert {cell.bench for cell in ENGINE_CELLS} == set(EXPECT)


@pytest.mark.parametrize("cell", ENGINE_CELLS, ids=lambda cell: cell.bench)
def test_engine_point_simulation_cost(benchmark, recorder, cell):
    row = benchmark(run_engine_cell, cell)
    assert EXPECT[cell.bench](PingPongResult(**row))
    recorder.record_point(SUITES["engine"].point(cell, row))
