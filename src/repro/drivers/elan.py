"""Elan driver personality — Quadrics QsNetII (QM500).

The paper's lowest-latency rail: 1.7 µs, ~850 MB/s (§3.1).  Aggregation
pays off even more here than on MX — per-packet host costs are a larger
fraction of the (small) base latency — and the rendezvous DMA setup is
comparatively expensive, which is why the final strategy keeps Quadrics as
the small-message rail and puts the bulk of stripped large messages on
Myri-10G.
"""

from __future__ import annotations

from .base import Driver

__all__ = ["ElanDriver"]


class ElanDriver(Driver):
    """Quadrics Elan over QsNetII."""

    api_name = "elan"
