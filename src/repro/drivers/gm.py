"""GM-2 driver personality — Myrinet-2000 with the GM API.

The last of the five driver APIs NewMadeleine supports (§2: "drivers for
the Quadrics Elan API, the Myricom Myrinet Express and GM-2 APIs, the
Dolphinics SiSCI API and the legacy socket API").  GM is the older
Myricom interface on Myrinet-2000 hardware: ~6.5 µs latency and ~245 MB/s
— the generation the original Madeleine was built for, kept here for
mixed-generation clusters (e.g. a Myrinet-2000 partition joined to a
Myri-10G one).
"""

from __future__ import annotations

from ..hardware.presets import MYRINET_2000  # re-exported
from .base import Driver

__all__ = ["GMDriver", "MYRINET_2000"]


class GMDriver(Driver):
    """Myricom GM-2 over Myrinet-2000."""

    api_name = "gm"
