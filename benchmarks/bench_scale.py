"""Collectives scaling benchmarks: simulated latency vs P.

Wraps :mod:`repro.bench.scale` in pytest-benchmark so the P ∈ {16..1024}
curve lands in ``BENCH_pytest.json`` next to the figure points, as
gateable ``scale.*`` points.
"""

import pytest

from repro.bench.scale import SCALE_ALGOS, run_collective, scale_point

SCALE_POINTS = (16, 64, 256, 1024)


@pytest.mark.parametrize("n_nodes", SCALE_POINTS)
@pytest.mark.parametrize("algo", SCALE_ALGOS)
def test_scale_collective(benchmark, recorder, algo, n_nodes):
    result = benchmark.pedantic(
        lambda: run_collective(algo, n_nodes), rounds=2, iterations=1
    )
    assert result.n_nodes == n_nodes
    recorder.record_point(scale_point(result))
    # every rank participates, so the whole platform is (rightly) active
    if n_nodes >= 256:
        assert result.engines_built == n_nodes
        assert 0.0 <= result.idle_skip_ratio <= 1.0
