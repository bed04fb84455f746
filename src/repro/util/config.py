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
from ..hardware.spec import HostSpec, PlatformSpec, RailSpec
from .errors import ConfigError

__all__ = ["platform_from_dict", "platform_from_json", "platform_to_json"]


def _rail_from_dict(data: Mapping[str, Any]) -> RailSpec:
    if "preset" in data:
        preset_name = data["preset"]
        base = PRESET_RAILS.get(preset_name)
        if base is None:
            raise ConfigError(
                f"unknown rail preset {preset_name!r}; have {sorted(PRESET_RAILS)}"
            )
        overrides = dict(data.get("overrides", {}))
        unknown = set(data) - {"preset", "overrides"}
        if unknown:
            raise ConfigError(
                f"preset rail entry has unexpected keys {sorted(unknown)};"
                " put spec fields under 'overrides'"
            )
        return base.replace(**overrides) if overrides else base
    return RailSpec.from_dict(data)


def platform_from_dict(data: Mapping[str, Any]) -> PlatformSpec:
    """Build a :class:`PlatformSpec` from a plain dict."""
    try:
        rails_data = data["rails"]
    except KeyError:
        raise ConfigError("platform config needs a 'rails' list") from None
    if not isinstance(rails_data, (list, tuple)) or not rails_data:
        raise ConfigError("'rails' must be a non-empty list")
    rails = tuple(_rail_from_dict(r) for r in rails_data)
    host = HostSpec.from_dict(data.get("host", {}))
    return PlatformSpec(rails=rails, n_nodes=int(data.get("n_nodes", 2)), host=host)


def platform_from_json(path: str) -> PlatformSpec:
    """Load a platform config from a JSON file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read platform config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return platform_from_dict(data)


def platform_to_json(spec: PlatformSpec, path: str) -> None:
    """Persist a platform spec as JSON (full rail dicts, no presets)."""
    with open(path, "w") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
