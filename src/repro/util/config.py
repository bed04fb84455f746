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

__all__ = ["platform_from_dict", "platform_from_json"]


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
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read platform config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return platform_from_dict(data)
