"""Figure 7: packet stripping with adaptive threshold — bandwidth.

One-segment transfers: each single network, a forced 50/50 (iso) split,
and the hetero split whose ratios come from init-time sampling.  The
hetero split must beat the iso split which must beat the best single
rail at large sizes.
"""

from repro.bench import report_figure, run_figure, write_reports
from repro.util.units import MB


def test_fig7_split_bandwidth(benchmark, report_dir, samples, recorder, bench_jobs):
    # fig7's default sampling is deterministic and equals the shared
    # `samples` fixture; letting it sample keeps the plan portable so
    # the sweep can fan out when REPRO_BENCH_JOBS > 1.
    result = benchmark.pedantic(
        lambda: run_figure("fig7", reps=2, jobs=bench_jobs), rounds=1, iterations=1
    )
    report_figure(result)
    write_reports([result], report_dir)
    recorder.record_figure(result)
    at = lambda label: result.sweep.point(label, 8 * MB).bandwidth_MBps
    hetero, iso = at("hetero-split over both"), at("iso-split over both")
    mx, elan = at("1 segment over Myri-10G"), at("1 segment over Quadrics")
    assert hetero > iso > mx > elan
    # hetero ratio came from sampling: ~0.585 of the bytes over Myri-10G
    ratios = samples.ratios(["myri10g", "qsnet2"])
    assert 0.55 <= ratios["myri10g"] <= 0.62
