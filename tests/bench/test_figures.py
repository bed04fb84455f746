"""Structural tests of the figure runners (tiny sweeps for speed).

The full-size figure reproductions (and their shape assertions) live in
``benchmarks/``; here we check every runner produces well-formed output.
"""

import pytest

from repro.bench import FIGURES, run_figure
from repro.bench.figures import figure_plan
from repro.util.errors import BenchError
from repro.util.units import KB, MB

SMALL_SIZES = [64, 4 * KB]
BIG_SIZES = [64 * KB, 1 * MB]

EXPECTED_KIND = {
    "fig2a": "latency",
    "fig2b": "bandwidth",
    "fig3a": "latency",
    "fig3b": "bandwidth",
    "fig4a": "latency",
    "fig4b": "bandwidth",
    "fig5a": "latency",
    "fig5b": "bandwidth",
    "fig6": "latency",
    "fig7": "bandwidth",
}


def test_registry_covers_every_paper_figure():
    assert set(FIGURES) == set(EXPECTED_KIND)
    for figure_id, kind in EXPECTED_KIND.items():
        plan = figure_plan(figure_id)
        assert (plan.figure_id, plan.metric) == (figure_id, kind)
        assert plan.title == FIGURES[figure_id].title
        assert plan.sizes == tuple(FIGURES[figure_id].sizes) and plan.portable


def test_samples_only_for_figures_that_take_them(samples):
    assert [f for f, row in FIGURES.items() if row.takes_samples] == ["fig7"]
    assert not figure_plan("fig7", samples=samples).portable
    with pytest.raises(BenchError, match="does not take init-time samples"):
        figure_plan("fig4a", samples=samples)


@pytest.mark.parametrize("figure_id", sorted(EXPECTED_KIND))
def test_runner_produces_wellformed_result(figure_id, samples):
    sizes = SMALL_SIZES if EXPECTED_KIND[figure_id] == "latency" else BIG_SIZES
    if figure_id == "fig5a":
        sizes = [64, 4 * KB]  # 4 segments need >= 4 bytes
    kwargs = {"sizes": sizes, "reps": 1}
    if figure_id == "fig7":
        kwargs["samples"] = samples
    result = run_figure(figure_id, **kwargs)
    assert result.figure_id == figure_id
    assert result.metric == EXPECTED_KIND[figure_id]
    assert len(result.sweep.curves) >= 3
    text = result.render()
    assert result.figure_id in text
    # every curve appears as a column and every size as a row
    for label in result.sweep.curves:
        assert label in text.splitlines()[1]
    assert len(result.table.rows) == len(result.sweep.sizes)


def test_unknown_figure_rejected():
    with pytest.raises(BenchError, match="unknown figure"):
        run_figure("fig99")


def test_fig7_uses_provided_samples(samples):
    result = run_figure("fig7", sizes=[1 * MB], reps=1, samples=samples)
    het = result.sweep.point("hetero-split over both", 1 * MB)
    iso = result.sweep.point("iso-split over both", 1 * MB)
    assert het.bandwidth_MBps > iso.bandwidth_MBps
