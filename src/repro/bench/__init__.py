"""Benchmark harness: ping-pong, sweeps, the paper's figure table and the
bench suites of a run record."""

from ..util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".pingpong": ("run_pingpong", "PingPongResult", "split_even", "BENCH_TAG"),
        ".flood": ("run_flood", "FloodResult"),
        ".sweep": ("Curve", "SweepResult", "sweep_table"),
        ".figures": ("FigureResult", "FIGURES", "run_figure"),
        ".reporting": ("report_figure", "report_table", "write_reports"),
        ".ablations": (
            "ABLATIONS",
            "ablation_poll_cost",
            "ablation_eager_threshold",
            "ablation_bus_capacity",
            "ablation_window",
            "ablation_split_ratio",
            "ablation_parallel_pio",
        ),
        ".extensions": (
            "EXTENSIONS",
            "ext_rail_scaling",
            "ext_heterogeneous_mix",
            "ext_parallel_pio_latency",
        ),
        ".tracing": (
            "TraceTarget",
            "TRACE_TARGETS",
            "resolve_trace_target",
            "run_traced",
        ),
        ".scale": (
            "SCALE_ALGOS",
            "DEFAULT_POINTS",
            "ScaleResult",
            "run_collective",
        ),
        ".suites": ("SUITES", "run_suites"),
    },
)
