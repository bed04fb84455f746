"""Run registry + regression gate: records, comparison, CLI wiring."""

import json

import pytest

from repro.bench.flood import run_flood
from repro.bench.pingpong import run_pingpong
from repro.cli import main
from repro.core.session import Session
from repro.hardware.presets import paper_platform, single_rail_platform
from repro.hardware.presets import MYRI_10G
from repro.obs.compare import compare_records, delta_table
from repro.obs.perf import (
    SCHEMA_VERSION,
    BenchRecord,
    BenchRecorder,
    flood_point,
    load_record,
    metrics_probe,
    pingpong_point,
    platform_hash,
    point_key,
    run_engine_suite,
)
from repro.util.errors import BenchError


@pytest.fixture()
def small_record(tmp_path):
    """A tiny but complete record built from real simulated runs."""
    rec = BenchRecorder("unit")
    session = Session(paper_platform(), strategy="greedy")
    pp = run_pingpong(session, 4096, segments=2, reps=1, warmup=1)
    rec.record_point(pingpong_point(pp, bench="unit.pp", curve="greedy"))
    fl = run_flood(Session(paper_platform(), strategy="greedy"), 4096, count=4, window=2)
    rec.record_point(flood_point(fl, bench="unit.flood"))
    rec.record_wall_clock("unit.wall", [0.5, 0.1, 0.3])
    rec.record_metrics(session.metrics)
    return rec.finish()


class TestRecord:
    def test_provenance_fields(self, small_record):
        assert small_record.python
        assert small_record.platform_info
        assert small_record.spec_sha256 == platform_hash(paper_platform())
        assert small_record.spec == paper_platform().to_dict()

    def test_wall_clock_median(self, small_record):
        w = small_record.wall_clock_s["unit.wall"]
        assert w["median"] == 0.3 and w["reps"] == 3
        assert w["min"] == 0.1 and w["max"] == 0.5

    def test_wall_clock_iqr(self, small_record):
        import statistics

        w = small_record.wall_clock_s["unit.wall"]
        p25, _, p75 = statistics.quantiles(
            [0.5, 0.1, 0.3], n=4, method="inclusive"
        )
        assert w["p25"] == p25 and w["p75"] == p75
        assert w["iqr"] == pytest.approx(p75 - p25)

    def test_wall_clock_single_rep_iqr_zero(self):
        rec = BenchRecorder("unit")
        rec.record_wall_clock("one", [0.25])
        w = rec.finish().wall_clock_s["one"]
        assert w["p25"] == w["p75"] == 0.25 and w["iqr"] == 0.0

    def test_json_round_trip(self, small_record, tmp_path):
        path = small_record.write(str(tmp_path / "BENCH_unit.json"))
        loaded = load_record(path)
        assert loaded.to_dict() == small_record.to_dict()
        assert json.load(open(path))["schema"] == SCHEMA_VERSION

    def test_unknown_schema_rejected(self):
        with pytest.raises(BenchError, match="schema"):
            BenchRecord.from_dict({"schema": "bogus/9"})

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(BenchError, match="cannot read"):
            load_record(str(tmp_path / "nope.json"))

    def test_point_keys_distinguish_flood_windows(self):
        a = {"kind": "flood", "bench": "b", "size": 64, "count": 4, "window": 2}
        b = dict(a, window=8)
        assert point_key(a) != point_key(b)

    def test_platform_hash_sensitivity(self):
        base = paper_platform()
        assert platform_hash(base) == platform_hash(paper_platform())
        assert platform_hash(base) != platform_hash(single_rail_platform(MYRI_10G))

    def test_metrics_probe_deterministic(self):
        assert metrics_probe() == metrics_probe()


class TestEngineSuite:
    def test_records_points_wall_and_metrics(self):
        rec = BenchRecorder("engine")
        run_engine_suite(rec, wall_reps=1)
        record = rec.finish()
        benches = {p["bench"] for p in record.points}
        assert "engine.pingpong_1MB_greedy" in benches
        assert "engine.pingpong_64B_aggreg_multirail" in benches
        assert set(record.wall_clock_s) >= {
            "engine.event_kernel_10k",
            "engine.flow_reallocation_200",
        }
        assert record.metrics  # probe snapshot attached
        assert any(k.startswith("engine.poll.idle_us") for k in record.metrics)

    def test_engine_suite_is_deterministic_in_sim(self):
        a, b = BenchRecorder("a"), BenchRecorder("b")
        run_engine_suite(a, wall_reps=1)
        run_engine_suite(b, wall_reps=1)
        assert a.finish().points == b.finish().points


class TestCompare:
    def test_identical_records_pass(self, small_record):
        report = compare_records(small_record, small_record)
        assert report.ok
        assert not report.failures
        assert "PASS" in report.summary()

    def test_retired_backend_label_still_loads_and_compares(self, small_record, tmp_path):
        # the label is a free string in records and the ledger: a record
        # written when the calendar core existed stays a usable baseline
        old = small_record.to_dict()
        old["backend"] = "calendar"
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(old))
        loaded = load_record(str(path))
        assert loaded.backend == "calendar"
        report = compare_records(loaded, small_record)
        assert report.ok and not report.failures
        assert any("baseline=calendar" in note for note in report.notes)
        from repro.obs.ledger import Ledger

        with Ledger(str(tmp_path / "ledger.db")) as ledger:
            rid = ledger.ingest_bench_record(str(path))
            assert ledger.show(rid)["points"]

    def test_sim_drift_gates(self, small_record):
        drifted = BenchRecord.from_dict(small_record.to_dict())
        for p in drifted.points:
            if "bandwidth_MBps" in p:
                p["bandwidth_MBps"] *= 0.9
        report = compare_records(small_record, drifted)
        assert not report.ok
        fails = {(d.bench, d.quantity) for d in report.failures}
        assert ("unit.pp", "bandwidth_MBps") in fails
        assert any(d.rel_delta == pytest.approx(-0.1) for d in report.failures)

    def test_wall_clock_is_report_only(self, small_record):
        slow = BenchRecord.from_dict(small_record.to_dict())
        slow.wall_clock_s["unit.wall"]["median"] *= 10
        report = compare_records(small_record, slow)
        assert report.ok  # never gates
        assert any(not d.gated and not d.ok for d in report.deltas)

    def test_iqr_surfaced_as_pure_context(self, small_record):
        """IQR rows appear in the delta table but can never warn or gate —
        dispersion is a measurement-quality note, not a regression."""
        wide = BenchRecord.from_dict(small_record.to_dict())
        w = wide.wall_clock_s["unit.wall"]
        w["p25"], w["p75"], w["iqr"] = 0.0, 10.0, 10.0
        report = compare_records(small_record, wide)
        iqr_rows = [d for d in report.deltas if d.quantity == "wall iqr (s)"]
        assert len(iqr_rows) == 1
        row = iqr_rows[0]
        assert not row.gated and row.ok  # even a 50x spread never flags
        assert row.current == 10.0
        assert "wall iqr (s)" in delta_table(report).render()

    def test_baseline_without_iqr_tolerated(self, small_record):
        """Records written before the iqr key existed still compare."""
        old = BenchRecord.from_dict(small_record.to_dict())
        for w in old.wall_clock_s.values():
            for key in ("p25", "p75", "iqr"):
                w.pop(key, None)
        report = compare_records(old, small_record)
        assert report.ok
        row = next(d for d in report.deltas if d.quantity == "wall iqr (s)")
        assert row.baseline is None and row.current is not None and row.ok
        # neither side has it -> no iqr row at all
        report2 = compare_records(old, old)
        assert not any(d.quantity == "wall iqr (s)" for d in report2.deltas)

    def test_missing_point_gates(self, small_record):
        shrunk = BenchRecord.from_dict(small_record.to_dict())
        shrunk.points = shrunk.points[:1]
        report = compare_records(small_record, shrunk)
        assert not report.ok
        assert any("missing from current run" in n for n in report.notes)

    def test_spec_mismatch_fails_fast(self, small_record):
        other = BenchRecord.from_dict(small_record.to_dict())
        other.spec_sha256 = "deadbeef"
        report = compare_records(small_record, other)
        assert not report.ok
        assert "not comparable" in report.summary()

    def test_delta_table_lists_regressions(self, small_record):
        drifted = BenchRecord.from_dict(small_record.to_dict())
        for p in drifted.points:
            if "one_way_us" in p:
                p["one_way_us"] *= 1.1
        report = compare_records(small_record, drifted)
        text = delta_table(report, only_regressions=True).render()
        assert "one_way_us" in text and "FAIL" in text
        assert "wall median" not in text  # unchanged rows filtered out


class TestCli:
    def test_bench_run_engine_and_self_gate(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_cli.json")
        assert main(["bench", "run", "--engine", "--wall-reps", "1", "-o", out]) == 0
        record = load_record(out)
        assert record.points and record.wall_clock_s and record.metrics
        assert main(["bench", "compare", out, out, "--gate"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_bench_gate_fails_on_synthetic_drop(self, tmp_path, capsys):
        out = str(tmp_path / "a.json")
        main(["bench", "run", "--engine", "--wall-reps", "1", "-o", out])
        data = json.load(open(out))
        for p in data["points"]:
            if "bandwidth_MBps" in p:
                p["bandwidth_MBps"] *= 0.9
        slow = str(tmp_path / "b.json")
        json.dump(data, open(slow, "w"))
        assert main(["bench", "compare", out, slow, "--gate"]) == 1
        printed = capsys.readouterr().out
        assert "verdict: FAIL" in printed
        assert "Per-point deltas" in printed  # the delta table accompanies it
        # without --gate the same comparison reports but exits 0
        assert main(["bench", "compare", out, slow]) == 0

    def test_bench_run_figures_subset(self, tmp_path):
        out = str(tmp_path / "figs.json")
        assert main(
            ["bench", "run", "--figures", "fig6", "--reps", "1", "-o", out]
        ) == 0
        record = load_record(out)
        assert {p["bench"] for p in record.points} == {"fig6"}
        assert "figure.fig6" in record.wall_clock_s

    def test_bench_run_unknown_figure(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        assert main(["bench", "run", "--figures", "fig99", "-o", out]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_metrics_openmetrics_round_trip(self, capsys):
        from repro.obs.openmetrics import validate_openmetrics

        assert main(["metrics", "-f", "openmetrics"]) == 0
        text = capsys.readouterr().out
        families = validate_openmetrics(text)
        assert any(f.endswith("_poll_idle_us") for f in families)

    def test_metrics_json(self, capsys):
        assert main(["metrics", "-f", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap == metrics_probe()

    def test_bench_run_with_live_endpoint(self, tmp_path, capsys):
        """--serve 0 starts the live endpoint for the duration of the run."""
        out = str(tmp_path / "BENCH_live.json")
        assert main(
            ["bench", "run", "--engine", "--wall-reps", "1", "--serve", "0",
             "-o", out]
        ) == 0
        printed = capsys.readouterr().out
        assert "live metrics: http://127.0.0.1:" in printed
        assert load_record(out).points  # the record still lands

    def test_bench_history_cli(self, tmp_path, capsys, small_record):
        drifted = BenchRecord.from_dict(small_record.to_dict())
        drifted.created_unix += 100.0
        drifted.git_sha = "f" * 40
        for p in drifted.points:
            if "one_way_us" in p:
                p["one_way_us"] *= 1.5
        small_record.write(str(tmp_path / "BENCH_old.json"))
        drifted.write(str(tmp_path / "BENCH_new.json"))
        assert main(["bench", "history", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "Bench history" in printed
        assert "Step changes" in printed  # the 1.5x sim drift is a step
        assert "history: 2 runs" in printed

    def test_bench_history_json(self, tmp_path, capsys, small_record):
        small_record.write(str(tmp_path / "BENCH_one.json"))
        assert main(["bench", "history", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["runs"]) == 1
        assert any(s["quantity"] == "wall iqr (s)" for s in doc["series"])

    def test_bench_history_no_records(self, tmp_path, capsys):
        assert main(["bench", "history", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_pingpong_json_point(self, capsys):
        assert main(["pingpong", "--size", "4K", "--strategy", "greedy", "--json"]) == 0
        point = json.loads(capsys.readouterr().out)
        assert point["kind"] == "pingpong" and point["size"] == 4096
        assert point["strategy"] == "greedy"
        assert point["bandwidth_MBps"] > 0 and point["one_way_us"] > 0

    def test_flood_json_point(self, capsys):
        assert main(
            ["flood", "--size", "4K", "--count", "4", "--window", "2", "--json"]
        ) == 0
        point = json.loads(capsys.readouterr().out)
        assert point["kind"] == "flood" and point["count"] == 4
        assert point["throughput_MBps"] > 0
