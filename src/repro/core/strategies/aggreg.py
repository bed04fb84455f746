"""Opportunistic aggregation on one rail (§3 / Figs 2-3).

Identical to ``single_rail`` except that, when consulted, it copies every
queued eager-eligible segment bound for the same peer into one packet —
up to the driver's eager packet limit.  This is the "copy the segments
into a contiguous memory area and send them as a single chunk" behaviour
whose memcpy overhead the paper measures to be very low: the aggregation
copy is charged at host memcpy bandwidth by the engine when the packet is
posted (the commit phase of :meth:`repro.core.scheduler.NodeEngine._pump_loop`).
Queue handling, and with it the ``quiet`` flag of the strategy contract,
is inherited unchanged.

The aggregation is *opportunistic*: only segments already in the backlog
when the NIC becomes idle are merged; the strategy never waits for more
data to arrive.
"""

from __future__ import annotations

from .single_rail import SingleRailStrategy

__all__ = ["AggregStrategy"]


class AggregStrategy(SingleRailStrategy):
    """Single rail + opportunistic aggregation of small segments."""

    name = "aggreg"
    aggregate = True
