"""Unit tests for init-time sampling and the fitted transfer-time model."""

import pytest

from repro import paper_platform, sample_rails
from repro.core.sampling import DEFAULT_SAMPLE_SIZES, RailSample, SampleTable
from repro.util.errors import ConfigError


def linear_points(overhead, bw, sizes=(1000, 2000, 4000)):
    return [(s, overhead + s / bw) for s in sizes]


class TestRailSampleFit:
    def test_exact_fit_of_linear_data(self):
        sample = RailSample.fit("r", linear_points(overhead=7.0, bw=500.0))
        assert sample.overhead_us == pytest.approx(7.0)
        assert sample.bw_MBps == pytest.approx(500.0)

    def test_negative_intercept_clamped(self):
        # decreasing overhead estimate below zero is clamped, bw kept
        points = [(1000, 0.9), (2000, 2.0), (4000, 4.0)]
        sample = RailSample.fit("r", points)
        assert sample.overhead_us >= 0.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            RailSample.fit("r", [(1000, 5.0)])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ConfigError):
            RailSample.fit("r", [(1000, 5.0), (2000, 4.0)])

    @pytest.mark.parametrize("sizes", [(65536, 65536), (65536, 65536, 65536)])
    def test_equal_sizes_rejected(self, sizes):
        """No line goes through points of one size; numpy's minimum-norm
        answer to that was a silently wrong table (1984 MB/s for a
        1210 MB/s rail) and a ``RankWarning``."""
        with pytest.raises(ConfigError, match="rail r: all sample sizes are equal"):
            RailSample.fit("r", [(s, 66.0) for s in sizes])

    def test_two_distinct_sizes_among_duplicates_still_fit(self):
        points = linear_points(7.0, 500.0, sizes=(1000, 1000, 4000, 4000, 1000))
        sample = RailSample.fit("r", points)
        assert sample.overhead_us == pytest.approx(7.0)
        assert sample.bw_MBps == pytest.approx(500.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, bad):
        """``nan <= 0`` is false: a NaN point used to come back as a model
        with ``overhead_us=nan, bw_MBps=nan``."""
        with pytest.raises(ConfigError, match="rail x: .*nan|rail x: .*inf"):
            RailSample.fit("x", [(10, bad), (20, 2.0)])


class TestSampleTable:
    @pytest.fixture()
    def table(self):
        return SampleTable(
            {
                "fast": RailSample.fit("fast", linear_points(5.0, 1200.0)),
                "slow": RailSample.fit("slow", linear_points(8.0, 800.0)),
            }
        )

    def test_ratios_proportional_to_bandwidth(self, table):
        ratios = table.ratios(["fast", "slow"])
        assert ratios["fast"] == pytest.approx(0.6)
        assert ratios["slow"] == pytest.approx(0.4)
        assert sum(ratios.values()) == pytest.approx(1.0)

    def test_unknown_rail(self, table):
        with pytest.raises(ConfigError):
            table.get("nope")
        assert "nope" not in table and "fast" in table

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            SampleTable({})


class TestSampleRails:
    def test_paper_platform_sampling(self, samples):
        """Sampling measures values close to (but above) the spec numbers."""
        assert set(samples.rail_names) == {"myri10g", "qsnet2"}
        mx, elan = samples.get("myri10g"), samples.get("qsnet2")
        assert mx.bw_MBps == pytest.approx(1210.0, rel=0.05)
        assert elan.bw_MBps == pytest.approx(860.0, rel=0.05)
        assert mx.overhead_us > 0 and elan.overhead_us > 0
        # the paper's stripping ratio ~0.585 toward Myri-10G
        assert samples.ratios(["myri10g", "qsnet2"])["myri10g"] == pytest.approx(
            0.585, abs=0.02
        )

    def test_sample_points_recorded(self, samples):
        mx = samples.get("myri10g")
        assert [p[0] for p in mx.points] == list(DEFAULT_SAMPLE_SIZES)

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ConfigError):
            sample_rails(paper_platform(), sizes=(65536,))

    def test_one_size_twice_rejected(self):
        with pytest.raises(ConfigError, match="myri10g: all sample sizes are equal"):
            sample_rails(paper_platform(), sizes=(65536, 65536))

    def test_fitted_floats_within_1e12_of_the_numpy_fit(self, samples):
        """The closed form replaced ``np.polyfit`` (PR 23); these are the
        four floats numpy gave.  The move is in the last place and no
        simulated result depends on it (``--sim-tol 0`` gate)."""
        golden = {
            "myri10g": (1210.000000000001, 11.898223140496114),
            "qsnet2": (860.0000000000003, 18.750176079734057),
        }
        for rail, (bw, overhead) in golden.items():
            assert samples.get(rail).bw_MBps == pytest.approx(bw, rel=1e-12, abs=0)
            assert samples.get(rail).overhead_us == pytest.approx(
                overhead, rel=1e-12, abs=0
            )


def _run_in_fresh_interpreter(script: str, **env_overrides: str) -> str:
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_run_loads_what_it_uses():
    """The import-set guard.  Nothing under ``src/`` imports numpy (the
    four-point line fit is arithmetic); the ledger, the live endpoint, the
    pool runner and the CLI have users of their own, and the compiler
    driver's standard library is needed only when the C core is not in the
    cache yet.  A session — sampled or not — that records nothing pays for
    none of them (start-up time and resident memory)."""
    from repro.sim.backend import native_available

    native_available()  # the cache is warm from here on
    _run_in_fresh_interpreter(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.core.session\n"
        "ours = sorted(m for m in sys.modules if m.split('.')[0] == 'repro')\n"
        "assert len(ours) <= 50, (len(ours), ours)\n"
        "from repro import Session, paper_platform, run_pingpong, sample_rails\n"
        "session = Session(paper_platform(), strategy='aggreg_multirail')\n"
        "res = run_pingpong(session, 64, segments=2, reps=3, warmup=1)\n"
        "assert res.one_way_us > 0\n"
        "sample_rails(paper_platform())\n"
        "heavy = {'numpy', 'sqlite3', 'http.server', 'multiprocessing', 'argparse',\n"
        "         'repro.cli',\n"
        # what only a *build* of the C core needs; a warm load touches none
        "         'hashlib', '_hashlib', 'subprocess', 'shutil', 'tempfile',\n"
        "         'sysconfig', 'bz2', 'lzma', 'importlib.util', 'pathlib'}\n"
        "loaded = heavy & (set(sys.modules) - before)\n"
        "assert not loaded, sorted(loaded)\n"
        "ours = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "allowed = {'repro.obs.metrics', 'repro.obs.instruments', 'repro.obs.spans',\n"
        "           'repro.bench.pingpong'}\n"
        "extra = [m for m in ours if m.startswith(('repro.obs.', 'repro.bench.'))\n"
        "         and m not in allowed]\n"
        "assert not extra, extra\n"
        "assert len(ours) <= 60, (len(ours), ours)\n"
        "from repro.obs import Ledger\n"
        "assert 'sqlite3' in sys.modules  # the checks above can fail\n"
    )


def test_figure_harness_import_set_is_bounded():
    """The same guard for hostbench's ``figures`` import line, whose cost
    is the ``setup_s`` BENCHMARK.json bounds: the figure table, the sweep
    walk and the claims load no pool, CLI, ledger or endpoint machinery,
    and a serial figure run still makes no pool."""
    _run_in_fresh_interpreter(
        "import sys\n"
        "from repro.bench import experiments, figures, pingpong, sweep\n"
        "heavy = {'multiprocessing', 'argparse', 'sqlite3', 'http.server', 'json',\n"
        "         'subprocess'}\n"
        "assert not heavy & set(sys.modules), sorted(heavy & set(sys.modules))\n"
        "ours = sorted(m for m in sys.modules if m.split('.')[0] == 'repro')\n"
        "assert len(ours) <= 58, (len(ours), ours)\n"
        "figures.run_figure('fig4a', sizes=[64], reps=1)\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "figures.run_figure('fig4a', sizes=[64, 128], reps=1, jobs=2)\n"
        "assert 'multiprocessing' in sys.modules  # the check above can fail\n"
    )
