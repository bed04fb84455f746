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

:func:`parse_openmetrics` is the inverse used by the round-trip tests —
a deliberately small parser for the subset this module emits, not a
general OpenMetrics consumer.
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from .metrics import SCHEMA, MetricsRegistry

__all__ = [
    "render_openmetrics",
    "parse_openmetrics",
    "validate_openmetrics",
    "sanitize_name",
]

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


# --------------------------------------------------------------------- #
# parsing (round-trip support for tests and the compare tooling)
# --------------------------------------------------------------------- #
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL = re.compile(r'(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>(?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_openmetrics(text: str) -> dict[str, dict]:
    """Parse the subset of OpenMetrics this module emits.

    Returns ``{family_name: {"type": ..., "unit": ..., "help": ...,
    "samples": [(name, labels_dict, value), ...]}}`` keyed by the
    *exposed* (sanitized) family name.  Raises ``ValueError`` on
    malformed input or a missing ``# EOF`` terminator.
    """
    families: dict[str, dict] = {}
    saw_eof = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[1] not in ("TYPE", "UNIT", "HELP"):
                raise ValueError(f"line {lineno}: malformed metadata line {line!r}")
            _, meta, fam, rest = parts
            entry = families.setdefault(
                fam, {"type": "unknown", "unit": None, "help": None, "samples": []}
            )
            if meta == "TYPE":
                entry["type"] = rest
            elif meta == "UNIT":
                entry["unit"] = rest
            else:
                entry["help"] = _unescape(rest)
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample line {line!r}")
        sample_name = m.group("name")
        labels = {
            lm.group("k"): _unescape(lm.group("v"))
            for lm in _LABEL.finditer(m.group("labels") or "")
        }
        value_text = m.group("value")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        family = sample_name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
                family = sample_name[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(f"line {lineno}: sample {sample_name!r} has no # TYPE")
        families[family]["samples"].append((sample_name, labels, value))
    if not saw_eof:
        raise ValueError("exposition does not end with # EOF")
    return families


def validate_openmetrics(text: str) -> dict[str, dict]:
    """Parse *and* check structural invariants; returns the families.

    Beyond :func:`parse_openmetrics` this asserts:

    * **counter** families only carry ``_total``-suffixed samples
      (mandatory in OpenMetrics; a bare counter sample is a bug in the
      renderer or a mislabelled family — this is what keeps ``fault.*``
      counters scrapable);
    * **gauge** / **unknown** families only carry bare samples (no
      reserved suffix);
    * per histogram series: bucket counts are cumulative (non-decreasing
      in ``le`` order), the last bucket is ``le="+Inf"``, and ``_count``
      equals the +Inf bucket.
    """
    families = parse_openmetrics(text)
    for fam, entry in families.items():
        if entry["type"] == "counter":
            for sample_name, _labels, _value in entry["samples"]:
                if sample_name != fam + "_total":
                    raise ValueError(
                        f"{fam}: counter sample {sample_name!r} must be"
                        f" {fam + '_total'!r}"
                    )
            continue
        if entry["type"] in ("gauge", "unknown"):
            for sample_name, _labels, _value in entry["samples"]:
                if sample_name != fam:
                    raise ValueError(
                        f"{fam}: {entry['type']} sample {sample_name!r} must"
                        f" carry no suffix"
                    )
            continue
        if entry["type"] != "histogram":
            continue
        buckets: dict[tuple, list[tuple[float, float]]] = {}
        counts: dict[tuple, float] = {}
        for sample_name, labels, value in entry["samples"]:
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            if sample_name == fam + "_bucket":
                le = labels.get("le")
                if le is None:
                    raise ValueError(f"{fam}: bucket sample without le label")
                edge = float("inf") if le == "+Inf" else float(le)
                buckets.setdefault(key, []).append((edge, value))
            elif sample_name == fam + "_count":
                counts[key] = value
        for key, series in buckets.items():
            if series != sorted(series, key=lambda p: p[0]):
                raise ValueError(f"{fam}: bucket edges out of order")
            values = [v for _, v in series]
            if values != sorted(values):
                raise ValueError(f"{fam}: bucket counts not cumulative")
            if series[-1][0] != float("inf"):
                raise ValueError(f"{fam}: last bucket must be le=\"+Inf\"")
            if key in counts and counts[key] != series[-1][1]:
                raise ValueError(f"{fam}: _count disagrees with +Inf bucket")
    return families
