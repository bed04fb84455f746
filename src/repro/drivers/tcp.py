"""TCP driver personality — the legacy socket fallback (§2).

High per-packet costs (system calls), high latency, and **no zero-copy
receive**: rendezvous chunks are copied once more on arrival, which the
engine charges at host memcpy speed (``RailSpec.zero_copy_recv`` is False).
Useful as the slow rail in heterogeneous-mix experiments and as a sanity
check that the strategies degrade gracefully on commodity networks.
"""

from __future__ import annotations

from .base import Driver

__all__ = ["TCPDriver"]


class TCPDriver(Driver):
    """BSD sockets over (gigabit) Ethernet."""

    api_name = "tcp"
