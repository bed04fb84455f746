"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``pingpong``     one measured point (size, segments, strategy)
``flood``        sustained streaming throughput (windowed non-blocking sends)
``figures``      regenerate paper figures as tables (and ASCII plots)
``ablations``    run the design-choice ablations
``extensions``   beyond-the-paper experiments (rail scaling, hetero mix,
                 parallel PIO)
``sample``       run init-time sampling and print the fitted models
``experiments``  write the full paper-vs-measured EXPERIMENTS.md record
``trace``        run a span-traced benchmark and export a Chrome/Perfetto
                 trace plus the per-request latency breakdown
``analyze``      critical-path latency attribution of a traced run: blame
                 tables, rail timelines, Chrome-trace overlay
``bench run``    record a benchmark run as a self-describing BENCH_*.json
                 (``--serve`` exposes a live OpenMetrics endpoint)
``bench compare``diff two run records / gate on simulated-result drift
``metrics``      run the canonical probe workload and print its metrics
                 (OpenMetrics or JSON)
``ledger``       queryable SQLite run ledger: ingest bench records, chaos
                 reports, fault plans, event logs and span streams; query
                 by git SHA
``topo``         describe the multi-switch topology presets (fat-tree,
                 dragonfly, rail-optimized) and their sample routes
``list``         show available strategies, drivers and rail presets

Every command accepts ``--platform config.json`` (see
:mod:`repro.util.config`) and defaults to the paper's 2-node
Myri-10G + Quadrics testbed.  Global ``--log-level``/``--log-json``/
``--log-file`` route all diagnostics through the structured event log
(:mod:`repro.obs.log`); ``repro bench run`` and ``repro chaos`` bind a
``run_id`` correlation id (``--run-id`` / ``$REPRO_RUN_ID`` / generated)
into every event and artifact they produce.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from .bench import (
    ABLATIONS,
    EXTENSIONS,
    FIGURES,
    TRACE_TARGETS,
    report_figure,
    run_figure,
    run_pingpong,
    run_traced,
    write_reports,
)
from .bench import scale as scale_mod
from .core.sampling import sample_rails
from .core.session import Session
from .core.strategies import available_strategies
from .hardware.presets import PRESET_RAILS, paper_platform
from .hardware.spec import DRIVER_APIS, PlatformSpec
from .util.config import platform_from_json
from .util.errors import BenchError, ConfigError, StrategyError
from .util.units import format_size, parse_size

__all__ = ["main", "build_parser"]


def _add_stream_flags(p: argparse.ArgumentParser) -> None:
    """Streaming/sampled tracing flags shared by ``trace`` and ``analyze``."""
    p.add_argument(
        "--stream", metavar="JSONL",
        help="write the (sampled) spans to a span stream file and analyse"
        " just those (read back with load_span_stream)",
    )
    p.add_argument(
        "--sample-rate", type=float, default=1.0, metavar="R",
        help="keep this fraction of span trees, decided by a seeded hash"
        " of each root span's identity (deterministic; default: 1.0)",
    )
    p.add_argument(
        "--sample-head", type=int, default=None, metavar="N",
        help="keep only the first N spans of the run (by span id)",
    )
    p.add_argument(
        "--sample-seed", type=int, default=0, metavar="S",
        help="seed of the rate-sampling hash (default: 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NewMadeleine multi-rail reproduction (HCW/IPDPS 2007)",
    )
    parser.add_argument(
        "--platform", metavar="JSON", help="platform config file (default: paper testbed)"
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warn", "error"), default="info",
        help="structured-event severity floor (default: info)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="render stderr diagnostics as JSONL instead of text",
    )
    parser.add_argument(
        "--log-file", metavar="JSONL",
        help="also append machine-readable events to JSONL (what"
        " 'repro ledger ingest' reads)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pingpong", help="measure one ping-pong point")
    p.add_argument("--size", default="8M", help="total message size (e.g. 4, 32K, 8M)")
    p.add_argument("--segments", type=int, default=1)
    p.add_argument("--strategy", default="split_balance", choices=available_strategies())
    p.add_argument("--rail", help="rail name for pinned strategies")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--pio-workers", type=int, default=None, help="extra PIO threads (§4)")
    p.add_argument(
        "--json", action="store_true", help="emit the point as a run-record JSON object"
    )

    fl = sub.add_parser("flood", help="measure sustained streaming throughput")
    fl.add_argument("--size", default="256K", help="message size (e.g. 4K, 1M)")
    fl.add_argument("--count", type=int, default=64)
    fl.add_argument("--window", type=int, default=8, help="max outstanding sends")
    fl.add_argument("--strategy", default="greedy", choices=available_strategies())
    fl.add_argument(
        "--json", action="store_true", help="emit the point as a run-record JSON object"
    )

    f = sub.add_parser("figures", help="regenerate paper figures")
    f.add_argument("ids", nargs="*", help=f"subset of {sorted(FIGURES)} (default: all)")
    f.add_argument("--reps", type=int, default=3)
    f.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan figure points over N worker processes (0 = all cores;"
        " simulated results are bit-identical to a serial run)",
    )
    f.add_argument("--plot", action="store_true", help="also render ASCII plots")
    f.add_argument("--out", metavar="DIR", help="write .txt/.csv reports under DIR")

    a = sub.add_parser("ablations", help="run design-choice ablations")
    a.add_argument("names", nargs="*", help=f"subset of {sorted(ABLATIONS)} (default: all)")

    x = sub.add_parser("extensions", help="run beyond-the-paper experiments")
    x.add_argument("names", nargs="*", help=f"subset of {sorted(EXTENSIONS)} (default: all)")

    sub.add_parser("sample", help="run init-time sampling and print the models")

    e = sub.add_parser("experiments", help="write the EXPERIMENTS.md record")
    e.add_argument("-o", "--output", default="EXPERIMENTS.md")
    e.add_argument("--reps", type=int, default=3)
    e.add_argument("--no-ablations", action="store_true")

    t = sub.add_parser(
        "trace", help="record a span-traced run and export Chrome trace JSON"
    )
    t.add_argument(
        "target",
        nargs="?",
        default="fig6",
        help=f"what to trace: one of {sorted(TRACE_TARGETS)} (figure ids"
        " like fig4a or bench_fig6_* are accepted; default: fig6)",
    )
    t.add_argument(
        "-o", "--output", metavar="JSON", default="trace.json",
        help="Chrome trace-event output file (open in Perfetto / chrome://tracing)",
    )
    t.add_argument(
        "--no-report", action="store_true", help="skip the per-request latency report"
    )
    t.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable summary (kernel stats, counters,"
        " fault health) instead of text",
    )
    _add_stream_flags(t)

    an = sub.add_parser(
        "analyze",
        help="critical-path latency attribution of a span-traced run",
    )
    an.add_argument(
        "target",
        nargs="?",
        default="fig6",
        help=f"what to analyze: one of {sorted(TRACE_TARGETS)} (default: fig6)",
    )
    an.add_argument(
        "--node", type=int, default=None, metavar="N",
        help="restrict attribution to requests submitted by node N (default: all)",
    )
    an.add_argument(
        "--bins", type=int, default=24, metavar="N",
        help="rail-utilization timeline resolution (default: 24)",
    )
    an.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    an.add_argument(
        "-o", "--output", metavar="JSON",
        help="also write the Chrome trace with the critical-path overlay lane",
    )
    _add_stream_flags(an)

    b = sub.add_parser("bench", help="benchmark run registry and regression gate")
    bsub = b.add_subparsers(dest="bench_command", required=True)

    br = bsub.add_parser("run", help="record a run as BENCH_*.json")
    br.add_argument(
        "--engine",
        action="store_true",
        help="record the two simulated engine ping-pong points and the"
        " metrics probe (host time: python3 -m hostbench run)",
    )
    br.add_argument(
        "--figures",
        nargs="*",
        metavar="FIG",
        default=None,
        help=f"run paper figures (subset of {sorted(FIGURES)}; bare flag = all)",
    )
    br.add_argument(
        "--scale",
        action="store_true",
        help="run the collectives scaling suite (multi-lane allreduce/"
        " barrier, NIC barrier over P node counts)",
    )
    br.add_argument(
        "--scale-points", type=int, nargs="+", metavar="P", default=None,
        help=f"node counts for --scale (default: {list(scale_mod.DEFAULT_POINTS)};"
        " implies --scale)",
    )
    br.add_argument(
        "--scale-algos", nargs="+", metavar="ALGO", default=None,
        choices=scale_mod.SCALE_ALGOS,
        help=f"collectives for --scale (default: all of {list(scale_mod.SCALE_ALGOS)};"
        " implies --scale)",
    )
    br.add_argument(
        "--adaptive",
        action="store_true",
        help="run the adaptive degrade-recovery suite (feedback/tournament"
        " strategies re-converging after a mid-run rail degrade)",
    )
    br.add_argument("--reps", type=int, default=2, help="simulated reps per figure point")
    br.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the figure sweeps and scale cells (0 ="
        " all cores; the record's simulated points are bit-identical to"
        " --jobs 1)",
    )
    br.add_argument(
        "--backend", default=None, metavar="{auto,heap,native}",
        help="simulation kernel backend (default: $REPRO_SIM_BACKEND, then"
        " auto = native when the C core loads, else heap);"
        " exported to $REPRO_SIM_BACKEND so --jobs workers inherit it",
    )
    br.add_argument("--name", help="record name (default: derived from suites)")
    br.add_argument("-o", "--output", required=True, metavar="JSON")
    br.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve live OpenMetrics on 127.0.0.1:PORT while the run is in"
        " flight (0 = pick a free port)",
    )
    br.add_argument(
        "--ledger", metavar="DB",
        help="ingest the finished record (and --log-file events) into this"
        " SQLite run ledger",
    )
    br.add_argument(
        "--run-id", metavar="ID",
        help="correlation id tying events/record/ledger rows together"
        " (default: $REPRO_RUN_ID, else generated)",
    )

    bc = bsub.add_parser("compare", help="diff two run records")
    bc.add_argument("baseline", help="baseline BENCH_*.json")
    bc.add_argument("current", help="current BENCH_*.json")
    bc.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero on simulated-result drift",
    )
    bc.add_argument(
        "--sim-tol", type=float, default=None,
        help="relative tolerance for deterministic simulated results",
    )
    bc.add_argument(
        "--all-rows", action="store_true", help="show every delta row, not only regressions"
    )

    c = sub.add_parser(
        "chaos",
        help="fault-injection sweep: every strategy vs random fault plans,"
        " checked against end-to-end delivery invariants",
    )
    c.add_argument(
        "--seeds", type=int, default=20, metavar="N",
        help="number of random fault plans per strategy (seeds 0..N-1)",
    )
    c.add_argument(
        "--strategies", default="all", metavar="NAMES",
        help="comma-separated strategy names, or 'all' (default)",
    )
    c.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (0 = all cores; results are identical to"
        " a serial run)",
    )
    c.add_argument(
        "--horizon", type=float, default=None, metavar="US",
        help="fault horizon per case in simulated microseconds",
    )
    c.add_argument(
        "--messages", type=int, default=None, metavar="N",
        help="messages per case (mixed sizes, both directions)",
    )
    c.add_argument(
        "--save-failing", metavar="DIR",
        help="write each failing case's FaultPlan JSON into DIR for replay",
    )
    c.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve live OpenMetrics on 127.0.0.1:PORT while the sweep runs"
        " (0 = pick a free port)",
    )
    c.add_argument(
        "--ledger", metavar="DB",
        help="ingest the sweep's cases (and --log-file events, failing"
        " plans) into this SQLite run ledger",
    )
    c.add_argument(
        "--run-id", metavar="ID",
        help="correlation id tying events/cases/ledger rows together"
        " (default: $REPRO_RUN_ID, else generated)",
    )

    lg = sub.add_parser(
        "ledger",
        help="queryable SQLite run ledger over bench/chaos/event artifacts",
    )
    lg.add_argument(
        "--db", metavar="FILE", default=None,
        help="ledger database path (default: bench_results/ledger.db)",
    )
    lgsub = lg.add_subparsers(dest="ledger_command", required=True)

    li = lgsub.add_parser(
        "ingest",
        help="ingest BENCH_*.json / chaos reports / fault plans / event logs"
        " / span streams (auto-detected by content)",
    )
    li.add_argument("paths", nargs="+", metavar="FILE")
    li.add_argument(
        "--run-id", help="fallback run id for artifacts that carry none"
    )

    lq = lgsub.add_parser("query", help="list runs, newest first")
    lq.add_argument(
        "--sha", metavar="REF",
        help="git SHA prefix; symbolic refs like HEAD are resolved via git",
    )
    lq.add_argument("--run-id", help="exact run id")
    lq.add_argument("--kind", help="substring of the run kind (bench/chaos/events)")
    lq.add_argument("--limit", type=int, default=20)
    lq.add_argument("--json", action="store_true", help="emit rows as JSON")

    lsh = lgsub.add_parser("show", help="everything the ledger holds on one run")
    lsh.add_argument("run_id")

    lgc = lgsub.add_parser("gc", help="drop all but the newest N runs")
    lgc.add_argument("--keep", type=int, default=50, metavar="N")

    m = sub.add_parser(
        "metrics", help="run the canonical probe workload and print its metrics"
    )
    m.add_argument(
        "-f", "--format", choices=("openmetrics", "json"), default="openmetrics"
    )
    m.add_argument("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")

    tp = sub.add_parser(
        "topo",
        help="describe the multi-switch topology presets (fat-tree,"
        " dragonfly, rail-optimized)",
    )
    tp.add_argument(
        "kind", nargs="?", default=None,
        help="preset to describe (fat_tree, dragonfly, rail_opt; omit to"
        " list all)",
    )
    tp.add_argument(
        "--nodes", type=int, default=64, metavar="N",
        help="platform size to instantiate (default: 64)",
    )
    tp.add_argument("--json", action="store_true", help="emit JSON")

    sub.add_parser("list", help="show strategies, drivers, rail presets")
    return parser


def _load_platform(args) -> PlatformSpec:
    if args.platform:
        return platform_from_json(args.platform)
    return paper_platform()


def _cmd_pingpong(args) -> int:
    import dataclasses

    plat = _load_platform(args)
    if args.pio_workers is not None:
        plat = dataclasses.replace(plat, host=plat.host.replace(pio_workers=args.pio_workers))
    size = parse_size(args.size)
    opts = {"rail": args.rail} if args.rail else {}
    samples = sample_rails(plat) if args.strategy == "split_balance" else None
    session = Session(plat, strategy=args.strategy, strategy_opts=opts, samples=samples)
    res = run_pingpong(session, size, segments=args.segments, reps=args.reps)
    if args.json:
        import json

        from .obs.perf import pingpong_point

        print(json.dumps(pingpong_point(res, strategy=args.strategy), sort_keys=True))
        return 0
    print(
        f"strategy={args.strategy} size={format_size(size)} segments={args.segments}:"
        f" one-way {res.one_way_us:.2f} us, {res.bandwidth_MBps:.1f} MB/s"
    )
    return 0


def _cmd_flood(args) -> int:
    from .bench.flood import run_flood

    plat = _load_platform(args)
    size = parse_size(args.size)
    samples = sample_rails(plat) if args.strategy == "split_balance" else None
    session = Session(plat, strategy=args.strategy, samples=samples)
    res = run_flood(session, size, count=args.count, window=args.window)
    if args.json:
        import json

        from .obs.perf import flood_point

        print(json.dumps(flood_point(res, strategy=args.strategy), sort_keys=True))
        return 0
    print(
        f"flood strategy={args.strategy} {args.count}x{format_size(size)}"
        f" window={args.window}: {res.throughput_MBps:.1f} MB/s,"
        f" {res.message_rate_per_ms:.1f} msgs/ms"
    )
    return 0


def _cmd_figures(args) -> int:
    from .bench.figures import figure_ids

    results = []
    for figure_id in figure_ids(args.ids):
        result = run_figure(figure_id, reps=args.reps, jobs=args.jobs)
        report_figure(result)
        if args.plot:
            print(result.plot())
            print()
        results.append(result)
    if args.out:
        paths = write_reports(results, args.out)
        print(f"wrote {len(paths)} files under {args.out}/")
    return 0


def _cmd_studies(args) -> int:
    """``ablations`` and ``extensions``: render the named studies of the
    command's table."""
    studies = {"ablations": ABLATIONS, "extensions": EXTENSIONS}[args.command]
    names = args.names or sorted(studies)
    unknown = [n for n in names if n not in studies]
    if unknown:
        raise BenchError(
            f"unknown {args.command} {unknown}; available: {sorted(studies)}"
        )
    for name in names:
        fn, _takes_samples = studies[name]
        print(fn().render())
        print()
    return 0


def _cmd_sample(args) -> int:
    plat = _load_platform(args)
    table = sample_rails(plat)
    for name in table.rail_names:
        s = table.get(name)
        print(f"{name:>10}: {s.bw_MBps:8.1f} MB/s + {s.overhead_us:6.2f} us")
        for size, t in s.points:
            print(f"{'':>12}{format_size(size):>6}: {t:10.2f} us one-way")
    ratios = table.ratios(table.rail_names)
    print("stripping ratios:", {k: round(v, 3) for k, v in ratios.items()})
    return 0


def _cmd_experiments(args) -> int:
    from .bench.experiments import write_experiments_md

    outcomes = write_experiments_md(
        args.output, reps=args.reps, include_ablations=not args.no_ablations
    )
    ok = sum(1 for o in outcomes if o.ok)
    print(f"{args.output}: {ok}/{len(outcomes)} paper claims reproduced")
    return 0 if ok == len(outcomes) else 1


def _run_traced(args):
    """What ``trace`` and ``analyze`` start with: the finished traced
    session of the target and, with ``--stream``, the summary of the span
    stream written from it (``None`` without); the session then holds
    just the spans the stream holds."""
    from .obs.streaming import SpanSampler, sampled_spans, write_span_stream

    if args.stream is None and (args.sample_rate != 1.0 or args.sample_head is not None):
        raise BenchError("--sample-rate/--sample-head require --stream FILE")
    try:
        sampler = SpanSampler(
            rate=args.sample_rate, head=args.sample_head, seed=args.sample_seed
        )
    except ValueError as exc:
        raise BenchError(str(exc)) from None
    session = run_traced(args.target, _load_platform(args) if args.platform else None)
    if args.stream is None:
        return session, None
    recorder = session.spans
    kept = sampled_spans(recorder.spans, sampler)
    try:
        write_span_stream(args.stream, kept, sampler)
    except OSError as exc:
        raise BenchError(f"cannot write span stream: {exc}") from None
    stream = {
        "path": args.stream,
        "spans": len(kept),
        "sampled_out": len(recorder.spans) - len(kept),
        "sampler": sampler.to_dict(),
    }
    recorder.spans = kept
    return session, stream


def _stream_summary(stream) -> str:
    return (
        f"span stream {stream['path']}: {stream['spans']} spans,"
        f" {stream['sampled_out']} sampled out"
    )


def _cmd_trace(args) -> int:
    from .obs import lifecycle_report, lifecycle_table, poll_tax_by_rail, write_chrome_trace

    session, stream = _run_traced(args)
    try:
        n_events = write_chrome_trace(session, args.output)
    except OSError as exc:
        print(f"cannot write trace: {exc}", file=sys.stderr)
        return 1
    sim = session.sim
    if args.json:
        import json

        snapshot = session.metrics.snapshot()
        payload = {
            "target": args.target,
            "trace": {"path": args.output, "span_events": n_events},
            "kernel": {
                "backend": sim.backend,
                "events_executed": sim.events_executed,
                "heap_compactions": sim.heap_compactions,
                "tombstone_ratio": sim.tombstone_ratio,
            },
            "active": session.active_health(),
            "counters": {
                name: value
                for name, value in sorted(snapshot.items())
                if not isinstance(value, dict)
            },
            "faults": (
                None
                if session.faults is None
                else {
                    "health": dict(session.faults.health_report()),
                    "counters": {
                        name: value
                        for name, value in sorted(snapshot.items())
                        if name.startswith("fault.") and not isinstance(value, dict)
                    },
                }
            ),
        }
        if stream is not None:
            payload["trace"]["stream"] = stream
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print(f"{args.output}: {n_events} span events (open in https://ui.perfetto.dev)")
    if stream is not None:
        print(_stream_summary(stream))
    print(
        f"kernel: {sim.backend} backend, {sim.events_executed} events executed,"
        f" {sim.heap_compactions} heap compactions,"
        f" tombstone ratio {sim.tombstone_ratio:.3f}"
    )
    health = session.active_health()
    print(
        f"active set: peak {health['peak_active_nodes']}/{health['n_nodes']} nodes,"
        f" {health['engines_built']} engines built,"
        f" {health['pump_wakeups']} wakeups"
        f" ({health['wakeups_per_event']:.3f}/event),"
        f" idle-skip ratio {health['idle_skip_ratio']:.3f}"
    )
    if session.faults is not None:
        health = session.faults.health_report()
        print("faults:", ", ".join(f"{rail}={h}" for rail, h in health.items()))
        for name, value in sorted(session.metrics.snapshot().items()):
            if name.startswith("fault.") and not isinstance(value, dict) and value:
                print(f"  {name} = {value:g}")
    if not args.no_report:
        rows = lifecycle_report(session, node_id=0)
        print()
        print(lifecycle_table(rows).render())
        tax = poll_tax_by_rail(rows)
        if tax:
            print()
            print("idle-poll tax charged to node 0 requests, by rail:")
            for rail, us in sorted(tax.items()):
                print(f"  {rail:>10}: {us:8.2f} us")
    return 0


def _cmd_analyze(args) -> int:
    import json

    from .obs.critical_path import (
        analyze_session,
        attribution_table,
        blame_table,
        critical_path_trace_events,
        timeline_table,
    )
    from .obs.export import to_chrome_trace

    session, stream = _run_traced(args)
    report = analyze_session(session, node_id=args.node, bins=args.bins)
    violations = report.verify()
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(attribution_table(report.attributions).render())
        print()
        print(blame_table(report.attributions).render())
        print()
        print(timeline_table(report.timeline).render())
        tax = report.poll_tax_totals()
        if tax:
            print()
            print("idle-poll tax on the critical path, by rail:")
            for rail, us in sorted(tax.items()):
                print(f"  {rail:>10}: {us:8.2f} us")
        if stream is not None:
            print(_stream_summary(stream))
    if args.output:
        doc = to_chrome_trace(session)
        doc["traceEvents"].extend(critical_path_trace_events(report.attributions))
        try:
            with open(args.output, "w") as fh:
                json.dump(doc, fh)
        except OSError as exc:
            print(f"cannot write trace: {exc}", file=sys.stderr)
            return 1
        print(
            f"{args.output}: Chrome trace with critical-path overlay"
            f" (open in https://ui.perfetto.dev)"
        )
    for violation in violations:
        print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


@contextlib.contextmanager
def _produced_run(args, command: str, **meta):
    """What ``bench run`` and ``chaos`` share around their body: the live
    OpenMetrics endpoint for as long as it runs (``--serve``;
    ``run.publisher`` is ``None`` without it) and, once it has finished,
    ingest of the artifacts it named on ``run`` into the run ledger
    (``--ledger``) under the invocation's run id (``--run-id``, bound by
    :func:`_configure_logging`)."""
    run = SimpleNamespace(publisher=None, record_path=None, report=None, plan_paths=())
    server = None
    if args.serve is not None:
        from .obs.server import LiveMetricsServer

        server = LiveMetricsServer(port=args.serve).start()
        run.publisher = server.publisher
        run.publisher.set_meta(command=command, **meta)
        print(f"live metrics: {server.url}/metrics")
    try:
        yield run
    finally:
        if server is not None:
            server.stop()
    if not args.ledger or (run.record_path is None and run.report is None):
        return
    from .obs.ledger import Ledger
    from .obs.log import get_logger

    rid = get_logger().bound.get("run_id")
    with Ledger(args.ledger) as ledger:
        if run.record_path is not None:
            rid = ledger.ingest_bench_record(run.record_path, run_id=rid)
            ledger.add_artifact(rid, "bench_record", run.record_path)
        if run.report is not None:
            rid = ledger.ingest_chaos_report(run.report, run_id=rid)
        for path in run.plan_paths:
            ledger.add_artifact(rid, "fault_plan", path)
        if args.log_file is not None:
            ledger.ingest_events(args.log_file, run_id=rid)
            ledger.add_artifact(rid, "event_log", args.log_file)
    print(f"ledger {args.ledger}: run {rid}")


def _bench_run(args) -> int:
    from .bench.suites import run_suites
    from .obs.log import get_logger
    from .obs.perf import BenchRecorder
    from .sim.backend import ENV_BACKEND, resolve_backend

    log = get_logger()
    # Select the kernel backend via the environment so that --jobs
    # worker processes inherit the exact same kernel.
    backend = resolve_backend(args.backend)  # bad name: main() exits 2
    if args.backend:
        os.environ[ENV_BACKEND] = args.backend
    flags = {
        "engine": (args.engine, {}),
        "figures": (
            args.figures is not None,
            {"figures": args.figures, "reps": args.reps},
        ),
        "scale": (
            args.scale or args.scale_points is not None or args.scale_algos is not None,
            {"algos": args.scale_algos, "points": args.scale_points},
        ),
        "adaptive": (args.adaptive, {}),
    }
    selected = {name: opts for name, (on, opts) in flags.items() if on} or {"engine": {}}
    recorder = BenchRecorder(
        args.name or "+".join(selected),
        spec=_load_platform(args),
        run_id=log.bound.get("run_id"),
        backend=backend,
    )
    print(f"kernel backend: {backend}")
    log.info("run.start", command="bench run", record=recorder.name, suites=list(selected))
    with _produced_run(args, "bench run", record=recorder.name) as run:

        def on_cell(suite: str, lines: list[str], done: int, total: int) -> None:
            for line in lines:
                print(line)
            if run.publisher is not None:
                run.publisher.publish_progress(suite, done, total)

        run_suites(recorder, selected, jobs=args.jobs, on_cell=on_cell)
        if run.publisher is not None:
            run.publisher.publish_metrics(recorder.metrics)
        try:
            path = recorder.write(args.output)
        except OSError as exc:
            print(f"cannot write record: {exc}", file=sys.stderr)
            return 1
        run.record_path = path
        log.info(
            "run.done", command="bench run", record=recorder.name,
            points=len(recorder), path=path,
        )
        print(f"{path}: {len(recorder)} points")
    return 0


def _bench_compare(args) -> int:
    from .obs import compare as compare_mod
    from .obs.compare import compare_records, delta_table
    from .obs.perf import load_record

    report = compare_records(
        load_record(args.baseline),
        load_record(args.current),
        sim_rel_tol=args.sim_tol if args.sim_tol is not None else compare_mod.SIM_REL_TOL,
    )
    show_all = args.all_rows or not report.ok
    table = delta_table(report, only_regressions=not args.all_rows and not report.ok)
    if show_all and report.deltas:
        print(table.render())
        print()
    print(report.summary())
    if args.gate:
        return 0 if report.ok else 1
    return 0


def _cmd_bench(args) -> int:
    return {"run": _bench_run, "compare": _bench_compare}[args.bench_command](args)


def _cmd_metrics(args) -> int:
    import json

    from .obs.openmetrics import render_openmetrics
    from .obs.perf import metrics_probe

    snapshot = metrics_probe(_load_platform(args))
    if args.format == "openmetrics":
        text = render_openmetrics(snapshot)
    else:
        text = json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_list(args) -> int:
    print("strategies:", ", ".join(available_strategies()))
    print("drivers:   ", ", ".join(DRIVER_APIS))
    print("rails:")
    for name, rail in sorted(PRESET_RAILS.items()):
        print(
            f"  {name:>8}: driver={rail.driver:<6} {rail.bw_MBps:7.1f} MB/s"
            f" lat {rail.lat_us:5.2f} us  eager<= {format_size(rail.eager_threshold)}"
        )
    return 0


def _cmd_chaos(args) -> int:
    from .faults.chaos import (
        DEFAULT_HORIZON_US,
        DEFAULT_MESSAGES,
        chaos_strategies,
        run_chaos,
        save_failing_plans,
    )

    total = len(chaos_strategies(args.strategies)) * args.seeds
    with _produced_run(args, "chaos", cases=total) as run:
        on_case = None
        if run.publisher is not None:
            publisher = run.publisher
            publisher.publish_progress("chaos", 0, total)
            done = [0]

            def on_case(case, row):  # noqa: F811
                done[0] += 1
                publisher.publish_metrics(row["digest"]["metrics"])
                publisher.publish_progress("chaos", done[0], total)

        report = run_chaos(
            seeds=args.seeds,
            strategies=args.strategies,
            jobs=args.jobs,
            horizon_us=args.horizon if args.horizon is not None else DEFAULT_HORIZON_US,
            messages=args.messages if args.messages is not None else DEFAULT_MESSAGES,
            on_case=on_case,
        )
        print(report.summary())
        run.report = report
        if not report.ok and args.save_failing:
            run.plan_paths = save_failing_plans(report, args.save_failing)
            for path in run.plan_paths:
                print(f"replay artifact: {path}")
    return 0 if report.ok else 1


def _resolve_sha(ref: str) -> str:
    """Pass hex SHA prefixes through; resolve symbolic refs via git."""
    import re
    import subprocess

    if re.fullmatch(r"[0-9a-f]{4,40}", ref):
        return ref
    try:
        out = subprocess.run(
            ["git", "rev-parse", ref], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ref


def _cmd_ledger(args) -> int:
    import json

    from .obs.ledger import DEFAULT_LEDGER_PATH, Ledger

    db = args.db or DEFAULT_LEDGER_PATH
    if args.ledger_command != "ingest" and not os.path.exists(db):
        # opening would create it: only ``ingest`` (and ``--ledger``) makes one
        raise BenchError(f"{db}: no ledger there; `repro ledger ingest` creates one")
    try:
        ledger = Ledger(db)
    except OSError as exc:
        raise BenchError(str(exc)) from exc
    with ledger:
        if args.ledger_command == "ingest":
            for path in args.paths:
                rids = ledger.ingest_path(path, run_id=args.run_id)
                print(f"{path}: run {', '.join(rids)}")
            return 0

        if args.ledger_command == "query":
            sha = _resolve_sha(args.sha) if args.sha else None
            rows = ledger.runs(
                sha=sha, run_id=args.run_id, kind=args.kind, limit=args.limit
            )
            if args.json:
                print(json.dumps(rows, indent=1, sort_keys=True, default=str))
                return 0 if rows else 1
            if not rows:
                print(f"{db}: no matching runs")
                return 1
            for r in rows:
                sha8 = (r["git_sha"] or "--------")[:8]
                if r["git_dirty"]:
                    sha8 += "*"
                cells = [f"{r['run_id']}", f"{r['kind']:<12}", f"{sha8:<9}"]
                if r["n_points"]:
                    cells.append(f"points={r['n_points']}")
                if r["n_chaos_cases"]:
                    verdict = (
                        f" (FAIL {r['n_chaos_failures']})"
                        if r["n_chaos_failures"]
                        else " ok"
                    )
                    cells.append(f"cases={r['n_chaos_cases']}{verdict}")
                if r["n_events"]:
                    cells.append(f"events={r['n_events']}")
                if r["n_artifacts"]:
                    cells.append(f"artifacts={r['n_artifacts']}")
                if r["name"]:
                    cells.append(str(r["name"]))
                print("  ".join(cells))
            return 0

        if args.ledger_command == "show":
            print(json.dumps(ledger.show(args.run_id), indent=1, sort_keys=True,
                             default=str))
            return 0

        if args.ledger_command == "gc":
            doomed = ledger.gc(args.keep)
            print(f"{db}: dropped {len(doomed)} runs, kept newest {args.keep}")
            return 0
    raise AssertionError(f"unhandled ledger command {args.ledger_command!r}")


def _cmd_topo(args) -> int:
    import json

    from .hardware.topology import (
        TOPOLOGY_BUILDERS,
        build_plan,
        describe_plan,
        topology_platform,
    )

    kinds = [args.kind] if args.kind else sorted(TOPOLOGY_BUILDERS)
    out = []
    for kind in kinds:
        spec = topology_platform(kind, args.nodes)
        rails = []
        for rail in spec.rails:
            plan = build_plan(rail, spec.n_nodes)
            if plan is not None:
                rails.append(describe_plan(plan))
        out.append({"topology": kind, "n_nodes": spec.n_nodes, "rails": rails})
    if args.json:
        print(json.dumps(out if args.kind is None else out[0], indent=1, sort_keys=True))
        return 0
    for entry in out:
        print(f"{entry['topology']} ({entry['n_nodes']} nodes)")
        for rd in entry["rails"]:
            print(
                f"  rail {rd['rail']}: {rd['switches']} switches,"
                f" {rd['link_MBps']:g} MB/s inter-switch links,"
                f" {rd['hop_us']:g} us/hop"
            )
            for s in rd["sample_routes"]:
                path = " -> ".join(s["links"]) if s["links"] else "(same switch)"
                print(
                    f"    {s['src']} -> {s['dst']}: {s['switch_hops']} switch"
                    f" hops, +{s['extra_latency_us']:g} us, {path}"
                )
    return 0


_COMMANDS = {
    "pingpong": _cmd_pingpong,
    "flood": _cmd_flood,
    "figures": _cmd_figures,
    "ablations": _cmd_studies,
    "extensions": _cmd_studies,
    "sample": _cmd_sample,
    "experiments": _cmd_experiments,
    "trace": _cmd_trace,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
    "chaos": _cmd_chaos,
    "metrics": _cmd_metrics,
    "ledger": _cmd_ledger,
    "topo": _cmd_topo,
    "list": _cmd_list,
}


def _configure_logging(args) -> None:
    """Install the global structured logger for this invocation.

    ``bench run`` and ``chaos`` always get a ``run_id`` bound (explicit
    flag, then ``$REPRO_RUN_ID``, then a fresh one) so every event and
    ledger row they produce shares one correlation id; other commands
    bind one only when the environment provides it.
    """
    from .obs.log import configure, new_run_id

    run_id = getattr(args, "run_id", None) or os.environ.get("REPRO_RUN_ID")
    produces_run = args.command == "chaos" or (
        args.command == "bench" and getattr(args, "bench_command", None) == "run"
    )
    if run_id is None and produces_run:
        run_id = new_run_id()
    configure(
        level=args.log_level,
        json_mode=args.log_json,
        path=args.log_file,
        **({"run_id": run_id} if run_id else {}),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, BenchError, StrategyError) as exc:
        # the CLI's one error boundary: the harness' own complaints about
        # what it was asked to do (a bad backend, platform file, figure id,
        # trace target, repetition count, bench record, strategy option,
        # ...) are one line, never a traceback
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
