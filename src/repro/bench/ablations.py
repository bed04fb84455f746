"""Ablations of the design choices DESIGN.md §6 calls out.

Each ablation returns a printable :class:`~repro.util.tables.Table` whose
rows vary exactly one knob and whose columns show the affected headline
metric, isolating the mechanism behind each paper claim:

* :func:`ablation_poll_cost` — the Fig 6 gap *is* the idle-NIC poll: the
  multi-rail small-message latency rises linearly with the Myri-10G poll
  cost while the Quadrics-only reference stays put;
* :func:`ablation_eager_threshold` — the multi-rail payoff boundary (Figs
  4-5) tracks the PIO threshold: raising it delays the crossover, because
  PIO sends serialize on the CPU;
* :func:`ablation_bus_capacity` — the aggregated-bandwidth ceiling (1675
  MB/s in the paper) follows the I/O-bus capacity until the sum of NIC
  rates becomes the binding constraint;
* :func:`ablation_window` — the optimization window: spacing out the
  non-blocking sends empties the backlog the NIC-idle consultation sees,
  and the aggregation benefit decays to nothing (NewMadeleine's engine
  only optimizes what has accumulated);
* :func:`ablation_split_ratio` — bandwidth of a forced split ratio vs the
  sampled one: the sampled ratio sits at the optimum.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..core.sampling import SampleTable, sample_rails
from ..core.session import Session
from ..hardware.presets import paper_platform, single_rail_platform
from ..util.tables import Table
from ..util.units import KB, MB, format_size
from .pingpong import run_pingpong

__all__ = [
    "ABLATIONS",
    "ablation_poll_cost",
    "ablation_eager_threshold",
    "ablation_bus_capacity",
    "ablation_window",
    "ablation_split_ratio",
    "ablation_parallel_pio",
]


def ablation_poll_cost(
    poll_costs_us: Sequence[float] = (0.0, 0.2, 0.35, 0.5, 1.0, 2.0),
    reps: int = 3,
) -> Table:
    """Small-message (4 B) multi-rail latency vs the idle Myri-10G poll cost."""
    size = 4
    base = paper_platform()
    elan = base.rails[1]
    ref = run_pingpong(
        Session(single_rail_platform(elan), strategy="aggreg"), size, segments=2, reps=reps
    )
    table = Table(
        ["mx poll cost (us)", "multirail latency (us)", "quadrics-only (us)", "gap (us)"],
        title=f"Ablation: idle-NIC poll cost ({format_size(size)} 2-seg, Fig 6 mechanism)",
    )
    for cost in poll_costs_us:
        mx = base.rails[0].replace(poll_cost_us=cost)
        plat = base.with_rails([mx, elan])
        res = run_pingpong(
            Session(plat, strategy="aggreg_multirail"), size, segments=2, reps=reps
        )
        table.add_row(cost, res.one_way_us, ref.one_way_us, res.one_way_us - ref.one_way_us)
    return table


def ablation_eager_threshold(
    thresholds: Sequence[int] = (8 * KB, 32 * KB, 128 * KB),
    sizes: Sequence[int] = (64 * KB, 256 * KB),
    reps: int = 3,
) -> Table:
    """Greedy-vs-best-single bandwidth ratio as the PIO threshold moves.

    A 2-segment message of total size S has S/2-byte segments: once the
    eager/PIO threshold exceeds S/2, both segments are PIO'd and serialize
    on the sending CPU, so the multi-rail gain collapses (the Figs 4-5
    crossover mechanism).  Below it, both segments move by DMA and overlap.
    """
    base = paper_platform()
    table = Table(
        ["eager threshold"] + [f"greedy/best @{format_size(s)}" for s in sizes],
        title="Ablation: PIO/eager threshold vs multi-rail payoff (Figs 4-5 mechanism)",
    )
    for thr in thresholds:
        rails = [r.replace(eager_threshold=thr) for r in base.rails]
        plat = base.with_rails(rails)
        row: list[object] = [format_size(thr)]
        for size in sizes:
            greedy = run_pingpong(
                Session(plat, strategy="greedy"), size, segments=2, reps=reps
            ).bandwidth_MBps
            best = max(
                run_pingpong(
                    Session(plat, strategy="aggreg", strategy_opts={"rail": r.name}),
                    size,
                    segments=2,
                    reps=reps,
                ).bandwidth_MBps
                for r in rails
            )
            row.append(greedy / best)
        table.add_row(*row)
    return table


def ablation_bus_capacity(
    capacities_MBps: Sequence[float] = (1000, 1400, 1850, 2100, 2500, 4000),
    size: int = 8 * MB,
    reps: int = 2,
    samples: Optional[SampleTable] = None,
) -> Table:
    """Hetero-split peak bandwidth vs I/O bus capacity."""
    base = paper_platform()
    table_samples = samples if samples is not None else sample_rails(base)
    nic_sum = sum(r.bw_MBps for r in base.rails)
    table = Table(
        ["bus (MB/s)", "hetero-split bw (MB/s)", "sum of NICs (MB/s)"],
        title=f"Ablation: I/O bus capacity vs aggregated bandwidth ({format_size(size)})",
    )
    for cap in capacities_MBps:
        plat = dataclasses.replace(base, host=base.host.replace(bus_MBps=cap))
        res = run_pingpong(
            Session(plat, strategy="split_balance", samples=table_samples),
            size,
            reps=reps,
        )
        table.add_row(cap, res.bandwidth_MBps, nic_sum)
    return table


def ablation_window(
    gaps_us: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0),
    size: int = 1024,
    segments: int = 4,
    reps: int = 3,
) -> Table:
    """Aggregation benefit vs inter-submit gap (optimization window)."""
    from ..hardware.presets import MYRI_10G

    plat = single_rail_platform(MYRI_10G)
    table = Table(
        ["submit gap (us)", "aggreg latency (us)", "no-aggreg latency (us)", "aggregated pkts"],
        title=f"Ablation: optimization window ({format_size(size)} total, {segments} segments)",
    )
    for gap in gaps_us:
        s_agg = Session(plat, strategy="aggreg")
        agg = run_pingpong(
            s_agg, size, segments=segments, reps=reps, inter_segment_gap_us=gap
        )
        agg_packets = s_agg.counters()["aggregated_packets"]
        plain = run_pingpong(
            Session(plat, strategy="single_rail"),
            size,
            segments=segments,
            reps=reps,
            inter_segment_gap_us=gap,
        )
        table.add_row(gap, agg.one_way_us, plain.one_way_us, agg_packets)
    return table


def ablation_parallel_pio() -> Table:
    """Greedy 2-segment latency vs number of extra PIO threads (§4).

    With the paper's single-threaded engine (0 workers) PIO sends
    serialize on the CPU; each extra worker lets one more eager copy
    overlap, extending the multi-rail payoff into the PIO regime.
    """
    sizes = (2 * KB, 8 * KB, 16 * KB)
    base = paper_platform()
    table = Table(
        ["pio workers"] + [f"greedy lat @{format_size(s)} (us)" for s in sizes],
        title="Ablation: parallel PIO threads (the paper's §4 future work)",
    )
    for n in (0, 1, 2):
        plat = dataclasses.replace(base, host=base.host.replace(pio_workers=n))
        row: list[object] = [n]
        for size in sizes:
            res = run_pingpong(Session(plat, strategy="greedy"), size, segments=2, reps=3)
            row.append(res.one_way_us)
        table.add_row(*row)
    return table


def ablation_split_ratio(
    ratios: Sequence[float] = (0.3, 0.4, 0.5, 0.585, 0.7, 0.8),
    size: int = 4 * MB,
    reps: int = 2,
    samples: Optional[SampleTable] = None,
) -> Table:
    """Bandwidth of forced split ratios around the sampled optimum.

    Forcing a ratio is done by feeding the strategy a doctored sample
    table whose fitted bandwidths produce exactly the requested split.
    """
    from ..core.sampling import RailSample

    base = paper_platform()
    real = samples if samples is not None else sample_rails(base)
    mx_name, elan_name = base.rails[0].name, base.rails[1].name
    table = Table(
        ["myri share", "bandwidth (MB/s)"],
        title=f"Ablation: stripping ratio vs bandwidth ({format_size(size)})",
        precision=3,
    )
    for ratio in ratios:
        forged = {
            mx_name: RailSample(
                rail_name=mx_name,
                points=real.get(mx_name).points,
                overhead_us=real.get(mx_name).overhead_us,
                bw_MBps=1000.0 * ratio,
            ),
            elan_name: RailSample(
                rail_name=elan_name,
                points=real.get(elan_name).points,
                overhead_us=real.get(elan_name).overhead_us,
                bw_MBps=1000.0 * (1.0 - ratio),
            ),
        }
        res = run_pingpong(
            Session(
                base,
                strategy="split_balance",
                strategy_opts={"split_decision": 1},
                samples=SampleTable(forged),
            ),
            size,
            reps=reps,
        )
        table.add_row(ratio, res.bandwidth_MBps)
    return table


#: name -> (function, takes init-time ``samples``), in EXPERIMENTS.md order;
#: what ``repro ablations`` and the EXPERIMENTS.md generator iterate.
ABLATIONS = {
    "poll_cost": (ablation_poll_cost, False),
    "eager_threshold": (ablation_eager_threshold, False),
    "window": (ablation_window, False),
    "parallel_pio": (ablation_parallel_pio, False),
    "bus_capacity": (ablation_bus_capacity, True),
    "split_ratio": (ablation_split_ratio, True),
}
