"""Shared utilities: units, tables, errors."""

from .errors import (
    ApiError,
    BenchError,
    ConfigError,
    DriverError,
    MatchingError,
    PlatformError,
    ProtocolError,
    ReproError,
    StrategyError,
)
from .tables import Table, render_csv, render_table
from .units import (
    KB,
    MB,
    PAPER_BANDWIDTH_SIZES,
    PAPER_LATENCY_SIZES,
    bandwidth_MBps,
    format_size,
    geometric_sizes,
    parse_size,
)

__all__ = [
    "ReproError",
    "ConfigError",
    "PlatformError",
    "DriverError",
    "ProtocolError",
    "MatchingError",
    "StrategyError",
    "ApiError",
    "BenchError",
    "Table",
    "render_table",
    "render_csv",
    "KB",
    "MB",
    "parse_size",
    "format_size",
    "bandwidth_MBps",
    "geometric_sizes",
    "PAPER_LATENCY_SIZES",
    "PAPER_BANDWIDTH_SIZES",
]
