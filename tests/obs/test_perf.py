"""Run registry + regression gate: records, comparison, CLI wiring."""

import json

import pytest

from repro.bench.flood import run_flood
from repro.bench.pingpong import run_pingpong
from repro.bench.suites import run_suites
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
    rec.record_metrics(session.metrics)
    return rec.finish()


class TestRecord:
    def test_provenance_fields(self, small_record):
        assert small_record.python
        assert small_record.platform_info
        assert small_record.spec_sha256 == platform_hash(paper_platform())
        assert small_record.spec == paper_platform().to_dict()

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
    def test_records_points_and_metrics(self):
        rec = BenchRecorder("engine")
        run_suites(rec, {"engine": {}})
        record = rec.finish()
        benches = {p["bench"] for p in record.points}
        assert "engine.pingpong_1MB_greedy" in benches
        assert "engine.pingpong_64B_aggreg_multirail" in benches
        assert record.metrics  # probe snapshot attached
        assert any(k.startswith("engine.poll.idle_us") for k in record.metrics)

    def test_engine_suite_is_deterministic_in_sim(self):
        a, b = BenchRecorder("a"), BenchRecorder("b")
        run_suites(a, {"engine": {}})
        run_suites(b, {"engine": {}})
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
        assert "bandwidth_MBps" not in text  # unchanged rows filtered out


class TestCli:
    def test_bench_run_engine_and_self_gate(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_cli.json")
        assert main(["bench", "run", "--engine", "-o", out]) == 0
        record = load_record(out)
        assert record.points and record.metrics
        assert main(["bench", "compare", out, out, "--gate"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_bench_gate_fails_on_synthetic_drop(self, tmp_path, capsys):
        out = str(tmp_path / "a.json")
        main(["bench", "run", "--engine", "-o", out])
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

    def test_bench_run_unknown_figure(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        assert main(["bench", "run", "--figures", "fig99", "-o", out]) == 2
        assert "unknown figures" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: [1, 2], "JSON object"),
            (lambda d: {**d, "created_unix": "x"}, "created_unix"),
            (lambda d: {**d, "points": [1]}, "points[0]"),
            (lambda d: {**d, "points": {"a": 1}}, "points"),
            (lambda d: {**d, "points": [{"one_way_us": "fast"}]}, "points[0].one_way_us"),
            (lambda d: {**d, "spec": []}, "spec"),
            (lambda d: {**d, "metrics": "none"}, "metrics"),
        ],
        ids=["list", "created_unix", "point", "points", "sim_field", "spec", "metrics"],
    )
    def test_bench_compare_malformed_record_is_one_line_error(
        self, tmp_path, capsys, small_record, mutate, field
    ):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(mutate(small_record.to_dict())))
        assert main(["bench", "compare", str(path), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert str(path) in captured.err and field in captured.err

    def test_bench_compare_non_utf8_record_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["bench", "compare", str(path), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert f"cannot read {path}" in captured.err

    def test_bench_compare_ignores_unknown_record_keys(self, tmp_path, small_record):
        # the committed baseline carries a key this version no longer reads
        path = tmp_path / "BENCH_old.json"
        old = {**small_record.to_dict(), "retired_key": {"x": {"median": 1.0}}}
        path.write_text(json.dumps(old))
        assert load_record(str(path)).to_dict() == small_record.to_dict()
        assert main(["bench", "compare", str(path), str(path), "--gate"]) == 0

    def test_metrics_openmetrics_round_trip(self, capsys):
        from tests.obs.openmetrics_parse import validate_openmetrics

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
            ["bench", "run", "--engine", "--serve", "0", "-o", out]
        ) == 0
        printed = capsys.readouterr().out
        assert "live metrics: http://127.0.0.1:" in printed
        assert load_record(out).points  # the record still lands

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
