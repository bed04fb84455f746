"""MX (Myrinet Express) driver personality — Myri-10G.

The paper's fastest-bandwidth rail: ~1200 MB/s, 2.8 µs end-to-end latency
(§3.1).  MX distinguishes small sends (PIO'd into the NIC) from large
sends (rendezvous + DMA); both are modelled in the base driver, so this
class only pins the API name (the calibrated rail is ``presets.MYRI_10G``).
"""

from __future__ import annotations

from .base import Driver

__all__ = ["MXDriver"]


class MXDriver(Driver):
    """Myricom MX over Myri-10G."""

    api_name = "mx"
