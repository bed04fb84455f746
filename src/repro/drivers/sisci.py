"""SiSCI driver personality — Dolphinics SCI.

NewMadeleine lists a SiSCI driver among its supported networks (§2); it is
not part of the paper's two-rail testbed but is provided so heterogeneous
mixes beyond Myri+Quadrics can be simulated (see
``examples/heterogeneous_cluster.py``).  SCI is a remote-memory-access
fabric: very low latency shared-segment writes, modest streaming bandwidth.
"""

from __future__ import annotations

from .base import Driver

__all__ = ["SisciDriver"]


class SisciDriver(Driver):
    """Dolphinics SiSCI."""

    api_name = "sisci"
