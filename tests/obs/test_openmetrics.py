"""OpenMetrics exposition: rendering, round-trip parse, invariants."""

import pytest

from repro import Session, run_pingpong
from repro.obs import MetricsRegistry, render_openmetrics
from repro.obs.openmetrics import sanitize_name
from tests.obs.openmetrics_parse import parse_openmetrics, validate_openmetrics


def _snapshot_scalars(snapshot):
    return {k: v for k, v in snapshot.items() if not isinstance(v, dict)}


class TestRender:
    def test_sanitize_name(self):
        assert sanitize_name("engine.poll.idle_us") == "repro_engine_poll_idle_us"
        assert sanitize_name("a-b c", prefix="") == "a_b_c"

    def test_counter_gets_total_suffix_and_help(self):
        reg = MetricsRegistry()
        reg.counter("engine.sweeps").add(42)
        text = render_openmetrics(reg)
        assert "# TYPE repro_engine_sweeps counter" in text
        assert "# HELP repro_engine_sweeps " in text
        assert "\nrepro_engine_sweeps_total 42\n" in text
        assert text.endswith("# EOF\n")

    def test_gauge_renders_bare(self):
        reg = MetricsRegistry()
        reg.gauge("active.engines_built").set(3)
        text = render_openmetrics(reg)
        assert "# TYPE repro_active_engines_built gauge" in text
        assert "\nrepro_active_engines_built 3\n" in text

    def test_labels_quoted_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("engine.poll.count", rail="myri10g").add(7)
        text = render_openmetrics(reg)
        assert 'repro_engine_poll_count_total{rail="myri10g"} 7' in text

    def test_histogram_buckets_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("engine.window.depth")  # edges 0,1,2,4,...
        for v in (0.0, 1.0, 1.0, 100.0):
            h.observe(v)
        text = render_openmetrics(reg)
        assert 'repro_engine_window_depth_bucket{le="0"} 1' in text
        assert 'repro_engine_window_depth_bucket{le="1"} 3' in text
        assert 'repro_engine_window_depth_bucket{le="+Inf"} 4' in text
        assert "repro_engine_window_depth_sum 102" in text
        assert "repro_engine_window_depth_count 4" in text

    def test_undeclared_metric_renders_as_unknown(self):
        reg = MetricsRegistry()
        reg.counter("custom.thing").add(1)
        text = render_openmetrics(reg)
        assert "# TYPE repro_custom_thing unknown" in text
        assert "\nrepro_custom_thing 1\n" in text  # no _total for unknown

    def test_unit_line_only_when_name_carries_unit_suffix(self):
        reg = MetricsRegistry()
        reg.counter("engine.poll.idle_us", rail="mx").add(1.5)
        reg.counter("engine.sweeps").add(1)  # unit "1": no UNIT line
        text = render_openmetrics(reg)
        assert "# UNIT repro_engine_poll_idle_us us" in text
        assert "# UNIT repro_engine_sweeps" not in text

    def test_accepts_snapshot_dict(self):
        reg = MetricsRegistry()
        reg.counter("engine.sweeps").add(2)
        assert render_openmetrics(reg.snapshot()) == render_openmetrics(reg)


class TestParseRoundTrip:
    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE repro_x gauge\nrepro_x 1\n")

    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_openmetrics("repro_x 1\n# EOF\n")

    def test_round_trip_scalar_values(self):
        reg = MetricsRegistry()
        reg.counter("engine.sweeps").add(11)
        reg.counter("engine.poll.idle_us", rail="myri10g").add(3.25)
        reg.gauge("active.engines_built").set(2)
        families = parse_openmetrics(render_openmetrics(reg))
        assert families["repro_engine_sweeps"]["type"] == "counter"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for fam in families.values()
            for name, labels, value in fam["samples"]
        }
        assert samples[("repro_engine_sweeps_total", ())] == 11
        assert samples[("repro_engine_poll_idle_us_total", (("rail", "myri10g"),))] == 3.25
        assert samples[("repro_active_engines_built", ())] == 2

    def test_round_trip_histogram_reconstructs_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("engine.window.depth")
        for v in (0.0, 1.0, 3.0, 50.0, 1e6):
            h.observe(v)
        families = validate_openmetrics(render_openmetrics(reg))
        fam = families["repro_engine_window_depth"]
        assert fam["type"] == "histogram"
        buckets = [
            (labels["le"], value)
            for name, labels, value in fam["samples"]
            if name.endswith("_bucket")
        ]
        # cumulative counts: de-cumulate and compare with the histogram
        cum = [v for _, v in buckets]
        per_bucket = [cum[0]] + [b - a for a, b in zip(cum, cum[1:])]
        assert per_bucket == h.counts
        count = [v for n, _, v in fam["samples"] if n.endswith("_count")][0]
        total = [v for n, _, v in fam["samples"] if n.endswith("_sum")][0]
        assert count == h.count and total == pytest.approx(h.total)


class TestValidatorConventions:
    def test_counter_sample_without_total_suffix_rejected(self):
        text = "# TYPE repro_x counter\nrepro_x 1\n# EOF\n"
        with pytest.raises(ValueError, match="_total"):
            validate_openmetrics(text)

    def test_gauge_sample_with_suffix_rejected(self):
        text = "# TYPE repro_x gauge\nrepro_x_total 1\n# EOF\n"
        with pytest.raises(ValueError, match="no suffix"):
            validate_openmetrics(text)

    def test_well_formed_counter_and_gauge_accepted(self):
        reg = MetricsRegistry()
        reg.counter("fault.retries", rail="myri10g").add(2)
        reg.gauge("fault.rail_state", rail="myri10g").set(1)
        families = validate_openmetrics(render_openmetrics(reg))
        assert families["repro_fault_retries"]["type"] == "counter"
        assert families["repro_fault_rail_state"]["type"] == "gauge"


class TestFaultFamilyExposition:
    """The ``fault.*`` schema families render scrapably (satellite of the
    critical-path PR: chaos sweeps publish these to the live endpoint)."""

    def test_declared_fault_counters_render_with_total(self):
        reg = MetricsRegistry()
        reg.counter("fault.lost.eager", rail="qsnet2").add(1)
        reg.counter("fault.lost.chunks", rail="qsnet2").add(3)
        reg.counter("fault.retries", rail="qsnet2").add(4)
        reg.counter("fault.downtime_us", rail="qsnet2").add(125.5)
        reg.gauge("fault.rail_state", rail="qsnet2").set(2)
        text = render_openmetrics(reg)
        assert 'repro_fault_lost_eager_total{rail="qsnet2"} 1' in text
        assert 'repro_fault_lost_chunks_total{rail="qsnet2"} 3' in text
        assert 'repro_fault_retries_total{rail="qsnet2"} 4' in text
        assert 'repro_fault_downtime_us_total{rail="qsnet2"} 125.5' in text
        assert 'repro_fault_rail_state{rail="qsnet2"} 2' in text
        assert "# UNIT repro_fault_downtime_us us" in text
        families = validate_openmetrics(text)
        assert set(families) == {
            "repro_fault_lost_eager",
            "repro_fault_lost_chunks",
            "repro_fault_retries",
            "repro_fault_downtime_us",
            "repro_fault_rail_state",
        }

    def test_chaos_case_snapshot_validates(self):
        """A real faulted run's snapshot is validator-clean and exposes
        the fault families with the right kinds."""
        from repro.faults.chaos import ChaosCase, run_case

        row = run_case(ChaosCase("greedy", seed=3))
        families = validate_openmetrics(render_openmetrics(row["digest"]["metrics"]))
        fault_fams = {f: e for f, e in families.items() if f.startswith("repro_fault_")}
        assert "repro_fault_events" in fault_fams
        for fam, entry in fault_fams.items():
            expected = "gauge" if fam == "repro_fault_rail_state" else "counter"
            assert entry["type"] == expected, fam
            for name, _labels, _value in entry["samples"]:
                if expected == "counter":
                    assert name == fam + "_total"
                else:
                    assert name == fam


class TestLiveSessionExposition:
    def test_real_session_snapshot_validates(self, plat2):
        """The acceptance round-trip: a real engine run's snapshot renders
        to parseable OpenMetrics with consistent histogram series."""
        session = Session(plat2, strategy="aggreg_multirail")
        run_pingpong(session, 4096, segments=2, reps=2)
        text = render_openmetrics(session.metrics)
        families = validate_openmetrics(text)
        assert any(f.endswith("_sweeps") for f in families)
        # every scalar snapshot value survives the round trip
        scalars = _snapshot_scalars(session.metrics.snapshot())
        parsed = {
            (name, tuple(sorted(labels.items()))): value
            for fam in families.values()
            for name, labels, value in fam["samples"]
        }
        assert len(parsed) >= len(scalars)
        # histogram _bucket/_sum/_count lines exist for a declared histogram
        assert any(n.endswith("_bucket") for n, _, _ in _all_samples(families))
        assert any(n.endswith("_sum") for n, _, _ in _all_samples(families))
        assert any(n.endswith("_count") for n, _, _ in _all_samples(families))


def _all_samples(families):
    for fam in families.values():
        yield from fam["samples"]
