"""Parse and validate the OpenMetrics text ``repro.obs.openmetrics`` emits.

The inverse of :func:`repro.obs.openmetrics.render_openmetrics` for the
round-trip tests: a deliberately small parser for the subset the renderer
emits, not a general OpenMetrics consumer, and a validator of the
invariants a scraper relies on.
"""

import re

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL = re.compile(r'(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>(?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_openmetrics(text: str) -> dict[str, dict]:
    """Parse the subset of OpenMetrics the renderer emits.

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
