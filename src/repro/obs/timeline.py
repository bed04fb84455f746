"""Per-rail usage summaries and trace timelines.

:func:`rail_usage_table` condenses driver/NIC statistics of a finished
session into a per-node, per-rail table — the quickest way to see *where
the bytes actually went* (e.g. that the final strategy put ~58% of a
stripped transfer on Myri-10G).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..util.tables import Table

if TYPE_CHECKING:  # pragma: no cover
    from ..core.session import Session

__all__ = [
    "rail_usage_table",
    "rail_byte_shares",
    "gantt",
    "busy_intervals",
    "merge_intervals",
]


def rail_usage_table(session: "Session") -> Table:
    """Per (node, rail) traffic summary of everything sent so far."""
    table = Table(
        [
            "node",
            "rail",
            "polls",
            "eager pkts",
            "eager bytes",
            "dma xfers",
            "dma bytes",
        ],
        title="Rail usage",
        precision=0,
    )
    for engine in session.engines:
        for drv in engine.drivers:
            table.add_row(
                engine.node_id,
                drv.name,
                drv.polls,
                drv.eager_posted,
                drv.eager_bytes,
                drv.dma_started,
                drv.dma_bytes,
            )
    return table


def rail_byte_shares(session: "Session", node_id: int = 0) -> dict[str, float]:
    """Fraction of one node's outgoing bytes (eager + DMA) per rail."""
    engine = session.engine(node_id)
    totals = {
        drv.name: float(drv.eager_bytes + drv.dma_bytes) for drv in engine.drivers
    }
    grand = sum(totals.values())
    if grand == 0:
        return {name: 0.0 for name in totals}
    return {name: v / grand for name, v in totals.items()}


def merge_intervals(
    intervals: list[tuple[float, float, str]]
) -> list[tuple[float, float, str]]:
    """Sort and coalesce overlapping/adjacent intervals of the same kind.

    Distinct kinds never merge (a PIO burst abutting a DMA stays two
    intervals); within one kind, a run of overlapping intervals becomes a
    single ``(min_start, max_end, kind)`` row.
    """
    merged: list[tuple[float, float, str]] = []
    for start, end, kind in sorted(intervals):
        if merged:
            p_start, p_end, p_kind = merged[-1]
            if kind == p_kind and start <= p_end:
                merged[-1] = (p_start, max(p_end, end), p_kind)
                continue
        merged.append((start, end, kind))
    return merged


def busy_intervals(session: "Session", node_id: int) -> dict[str, list[tuple[float, float, str]]]:
    """Per-rail NIC busy intervals ``(start, end, kind)`` of one node.

    ``kind`` is ``"pio"`` or ``"dma"``.  Requires ``trace=True``.  Built
    from the session's recorded rail spans (see :mod:`repro.obs.spans`);
    overlapping same-kind activity is merged into maximal intervals.
    """
    out: dict[str, list[tuple[float, float, str]]] = {}
    for span in session.spans.by_node(node_id):
        if span.cat not in ("pio", "dma") or span.open:
            continue
        rail = (span.args or {}).get("rail", span.track.removeprefix("rail:"))
        out.setdefault(rail, []).append((span.t0, span.t1, span.cat))
    return {rail: merge_intervals(ivs) for rail, ivs in out.items()}


def gantt(session: "Session", node_id: int = 0, width: int = 72) -> str:
    """ASCII gantt chart of one node's NIC activity.

    One lane per rail; ``#`` marks PIO (CPU-bound) activity, ``=`` marks
    DMA transfers.  Example::

        myri10g |        ==============================
        qsnet2  |###  ####          =================
                +--------------------------------------
                 0.0us                         842.3us
    """
    intervals = busy_intervals(session, node_id)
    if not intervals:
        return f"(no traced NIC activity for node {node_id}; was trace=True set?)"
    t_end = max(end for ivs in intervals.values() for _s, end, _k in ivs)
    t_end = max(t_end, 1e-9)
    name_w = max(len(name) for name in intervals)
    lines = []
    for name in sorted(intervals):
        lane = [" "] * width
        for start, end, kind in intervals[name]:
            c0 = int(start / t_end * (width - 1))
            c1 = max(c0, int(end / t_end * (width - 1)))
            mark = "#" if kind == "pio" else "="
            for c in range(c0, c1 + 1):
                lane[c] = mark
        lines.append(f"{name:<{name_w}} |" + "".join(lane).rstrip())
    lines.append(" " * name_w + " +" + "-" * width)
    # time labels aligned with the axis: "0.0us" under its left end, the
    # end label right-justified under its right end (clamped when the
    # axis is too narrow to fit both).
    left, right = "0.0us", f"{t_end:.1f}us"
    gap = width - len(left) - len(right)
    if gap >= 1:
        footer = " " * (name_w + 2) + left + " " * gap + right
    else:  # too narrow for both: keep the end label, right-justified
        footer = " " * (name_w + 2) + right.rjust(width)
    lines.append(footer)
    return "\n".join(lines)
