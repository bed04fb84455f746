"""Config plumbing: platforms and sessions from dicts / JSON files.

A platform config looks like::

    {
      "n_nodes": 2,
      "host": {"memcpy_MBps": 6000, "bus_MBps": 1850},
      "rails": [
        {"preset": "myri10g"},
        {"preset": "qsnet2", "overrides": {"poll_cost_us": 0.5}},
        {"name": "custom", "driver": "tcp", "lat_us": 30.0,
         "bw_MBps": 100.0, "pio_MBps": 300.0}
      ]
    }

Rails are either a full :class:`~repro.hardware.spec.RailSpec` dict or a
``preset`` reference (see :data:`repro.hardware.presets.PRESET_RAILS`)
with optional field ``overrides`` — the form the ablation scripts use.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..hardware.presets import PRESET_RAILS
from ..hardware.spec import PlatformSpec
from .errors import ConfigError

__all__ = ["platform_from_dict", "platform_from_json", "read_json_objects"]


def _expand_preset(entry: Any) -> Any:
    """A ``preset`` rail entry as the full rail dict it stands for (any
    other entry as it is: :meth:`RailSpec.from_dict` judges it)."""
    if not isinstance(entry, Mapping) or "preset" not in entry:
        return entry
    base = PRESET_RAILS.get(entry["preset"]) if isinstance(entry["preset"], str) else None
    if base is None:
        raise ConfigError(
            f"unknown rail preset {entry['preset']!r}; have {sorted(PRESET_RAILS)}"
        )
    unknown = set(entry) - {"preset", "overrides"}
    if unknown:
        raise ConfigError(
            f"preset rail entry has unexpected keys {sorted(unknown, key=str)};"
            " put spec fields under 'overrides'"
        )
    overrides = entry.get("overrides", {})
    if not isinstance(overrides, Mapping):
        raise ConfigError(f"preset {entry['preset']}: 'overrides' must be a mapping")
    return {**base.to_dict(), **overrides}


def platform_from_dict(data: Mapping[str, Any]) -> PlatformSpec:
    """Build a :class:`PlatformSpec` from a plain dict: presets expanded
    here, everything else parsed (and validated) by the spec itself."""
    if isinstance(data, Mapping) and isinstance(data.get("rails"), (list, tuple)):
        data = {**data, "rails": [_expand_preset(r) for r in data["rails"]]}
    return PlatformSpec.from_dict(data)


def platform_from_json(path: str) -> PlatformSpec:
    """Load a platform config from a JSON file."""
    ((_, data),) = read_json_objects(path, ConfigError)
    return platform_from_dict(data)


def read_json_objects(
    path: str, error: type[Exception], lines: bool = False
) -> list[tuple[str, dict[str, Any]]]:
    """The JSON object of a file — or, with ``lines``, one per non-blank
    line — as ``(where, object)`` pairs, ``where`` naming the file (and
    line).  A file that cannot be opened or is not UTF-8, invalid JSON or
    a document that is not an object is one ``error`` line saying where:
    every JSON and JSONL file the program reads comes through here, each
    reader passing the error class it raises (``ConfigError``,
    ``BenchError``, ``SpanError``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            texts = (
                [(f"{path}:{i}", text) for i, text in enumerate(fh, start=1) if text.strip()]
                if lines
                else [(path, fh.read())]
            )
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None
    out = []
    for where, text in texts:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise error(f"{where}: invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise error(f"{where}: expected a JSON object, got {type(doc).__name__}")
        out.append((where, doc))
    return out
