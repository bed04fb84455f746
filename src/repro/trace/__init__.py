"""Observability: counters and text-mode usage summaries.

The span/metrics layer lives in :mod:`repro.obs`; this package keeps
the always-on counter bag and the text-mode summaries (tables, commit
timeline, gantt) read from driver statistics and recorded spans.
"""

from .timeline import (
    busy_intervals,
    commit_timeline,
    gantt,
    merge_intervals,
    rail_byte_shares,
    rail_usage_table,
)
from .tracer import Counters

__all__ = [
    "Counters",
    "rail_usage_table",
    "rail_byte_shares",
    "commit_timeline",
    "gantt",
    "busy_intervals",
    "merge_intervals",
]
