"""Observability layer: metrics registry, span tracing, trace exporters.

The three pieces compose (see README "Observability"):

* :mod:`repro.obs.metrics` — the per-node :class:`Counters` bag the pump
  increments, and always-on counters/gauges/histograms behind a
  documented schema; one :class:`MetricsRegistry` per session, published
  from the owners of each count by ``Session.sync_kernel_metrics``;
* :mod:`repro.obs.spans` — opt-in (``Session(..., trace=True)``) nested
  spans of the pump's poll/handle/commit phases, per-rail PIO/DMA activity
  and rendezvous handshakes;
* :mod:`repro.obs.timeline` — text-mode summaries read from driver
  tallies and recorded spans (rail usage table, commit timeline, gantt);
* :mod:`repro.obs.export` — Chrome-trace / Perfetto JSON serialization;
* :mod:`repro.obs.perf` / :mod:`repro.obs.compare` — the *across-run*
  layer: self-describing ``BENCH_*.json`` records of deterministic
  simulated results and the identity gate that diffs them against
  committed baselines (host time is ``hostbench/``'s, not recorded here);
* :mod:`repro.obs.openmetrics` — OpenMetrics/Prometheus text exposition
  of any metrics snapshot;
* :mod:`repro.obs.runner` — the one fan-out (``ordered_map``): tasks
  dealt to worker processes, results merged in task order;
* :mod:`repro.obs.critical_path` — one pass over the spans, then per
  request: the critical-path attribution (every microsecond charged to a
  category, summing exactly to the request's latency) and its coarse
  view, the lifecycle report (queueing / wire time / idle-poll tax);
* :mod:`repro.obs.server` — stdlib live HTTP endpoint serving the
  OpenMetrics exposition (plus ``live.*`` gauges) while a sweep is in
  flight;
* :mod:`repro.obs.streaming` — the span stream file a run writes once
  (:func:`write_span_stream`, read back by :func:`load_span_stream`), with
  deterministic seeded span sampling (:class:`SpanSampler`);
* :mod:`repro.obs.log` — schema-versioned structured event log
  (JSONL + human text) with ``run_id``/``point_id``/``case_id``
  correlation fields threaded through the runners;
* :mod:`repro.obs.ledger` — queryable SQLite run ledger ingesting bench
  records, chaos reports, fault plans, and event logs, keyed by
  ``run_id`` + git SHA (``repro ledger`` CLI).
"""

from ..util.lazy import lazy_exports

# a session imports ``.metrics`` and ``.spans`` only; everything else —
# the ledger's sqlite3, the endpoint's http.server, the runner's
# multiprocessing — loads when one of its names is first used
__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".perf": (
            "BenchRecord",
            "BenchRecorder",
            "load_record",
            "pingpong_point",
            "flood_point",
            "metrics_probe",
            "platform_hash",
        ),
        ".compare": ("CompareReport", "Delta", "compare_records", "delta_table"),
        ".openmetrics": ("render_openmetrics",),
        ".metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "MetricSpec",
            "SCHEMA",
        ),
        ".spans": ("Span", "SpanError", "SpanRecorder", "NULL_SPAN"),
        ".export": (
            "to_chrome_trace",
            "write_chrome_trace",
            "validate_chrome_trace",
        ),
        ".runner": ("resolve_jobs", "ordered_map"),
        ".critical_path": (
            "CriticalPathReport",
            "RequestAttribution",
            "analyze_session",
            "attribute_requests",
            "attribution_table",
            "blame_by_rail",
            "blame_table",
            "category_totals",
            "critical_path_trace_events",
            "lifecycle_report",
            "lifecycle_table",
            "poll_tax_by_rail",
            "rail_timeline",
            "timeline_table",
        ),
        ".server": ("MetricsPublisher", "LiveMetricsServer", "OPENMETRICS_CONTENT_TYPE"),
        ".streaming": (
            "SpanSampler",
            "sampled_spans",
            "write_span_stream",
            "load_span_stream",
            "STREAM_SCHEMA_VERSION",
        ),
        ".log": (
            "EventLogger",
            "configure",
            "get_logger",
            "new_run_id",
            "parse_events",
            "EVENT_SCHEMA_VERSION",
        ),
        ".ledger": ("Ledger", "DEFAULT_LEDGER_PATH", "LEDGER_SCHEMA_VERSION"),
    },
)
