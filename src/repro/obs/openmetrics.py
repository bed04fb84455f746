"""OpenMetrics / Prometheus text exposition of a metrics snapshot.

:func:`render_openmetrics` turns any :meth:`MetricsRegistry.snapshot()
<repro.obs.metrics.MetricsRegistry.snapshot>` (or a live registry) into
the `OpenMetrics text format`__ so a run's counters can be scraped by a
Prometheus agent, dumped next to a trace, or embedded in a
``BENCH_*.json`` record and re-rendered later.

__ https://prometheus.io/docs/specs/om/open_metrics_spec/

Mapping rules
-------------
* metric family names are sanitized (``engine.poll.idle_us`` becomes
  ``repro_engine_poll_idle_us``) and namespaced under ``prefix``;
* kinds come from the declared :data:`~repro.obs.metrics.SCHEMA`
  (snapshots do not carry them); undeclared families render as
  ``unknown`` without suffix conventions;
* counters get the mandatory ``_total`` sample suffix;
* histograms render cumulative ``_bucket{le="..."}`` series ending in
  ``le="+Inf"``, plus ``_sum`` and ``_count``;
* the exposition always terminates with ``# EOF``.

The inverse — a small parser for the subset this module emits, and the
validator of its invariants — lives with the round-trip tests
(``tests/obs/openmetrics_parse.py``).
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from .metrics import SCHEMA, MetricsRegistry

__all__ = ["render_openmetrics", "sanitize_name"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str, prefix: str = "repro") -> str:
    """``engine.poll.idle_us`` -> ``repro_engine_poll_idle_us``."""
    out = _INVALID_CHARS.sub("_", name)
    if prefix:
        out = f"{prefix}_{out}"
    if not _NAME_OK.match(out):
        out = "_" + out
    return out


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_label_set(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _split_snapshot_key(key: str) -> tuple[str, dict[str, str]]:
    """``engine.poll.count{rail=myri10g}`` -> (family, labels)."""
    if "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    inner = inner.rstrip("}")
    labels: dict[str, str] = {}
    if inner:
        for pair in inner.split(","):
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


def _format_value(v: float) -> str:
    """Render integers without a trailing ``.0`` (stable across runs)."""
    if isinstance(v, bool):  # pragma: no cover - defensive
        return str(int(v))
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return str(int(v))
    return repr(float(v))


def _format_le(edge: float) -> str:
    return _format_value(edge)


Snapshot = Mapping[str, object]


def render_openmetrics(snapshot: Union[Snapshot, MetricsRegistry]) -> str:
    """Render a metrics snapshot (or live registry) as OpenMetrics text."""
    if isinstance(snapshot, MetricsRegistry):
        snapshot = snapshot.snapshot()

    # group snapshot entries into families preserving label sets
    families: dict[str, list[tuple[dict[str, str], object]]] = {}
    for key in sorted(snapshot):
        family, labels = _split_snapshot_key(key)
        families.setdefault(family, []).append((labels, snapshot[key]))

    lines: list[str] = []
    for family, series in families.items():
        spec = SCHEMA.get(family)
        is_histogram = any(isinstance(v, Mapping) for _, v in series)
        if spec is not None:
            kind = spec.kind
        else:
            kind = "histogram" if is_histogram else "unknown"
        name = sanitize_name(family)
        lines.append(f"# TYPE {name} {kind}")
        if spec is not None and spec.unit not in ("", "1") and name.endswith(f"_{spec.unit}"):
            lines.append(f"# UNIT {name} {spec.unit}")
        if spec is not None and spec.description:
            lines.append(f"# HELP {name} {_escape_label_value(spec.description)}")
        for labels, value in series:
            if isinstance(value, Mapping):
                edges = value["edges"]
                counts = value["counts"]
                cum = 0
                for edge, c in zip(edges, counts):
                    cum += c
                    le = 'le="' + _format_le(edge) + '"'
                    lines.append(f"{name}_bucket{_render_label_set(labels, extra=le)} {cum}")
                cum += counts[len(edges)]
                inf = 'le="+Inf"'
                lines.append(f"{name}_bucket{_render_label_set(labels, extra=inf)} {cum}")
                lines.append(
                    f"{name}_sum{_render_label_set(labels)} {_format_value(value['total'])}"
                )
                lines.append(f"{name}_count{_render_label_set(labels)} {value['count']}")
            else:
                suffix = "_total" if kind == "counter" else ""
                lines.append(
                    f"{name}{suffix}{_render_label_set(labels)} {_format_value(value)}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
