"""Extension experiments beyond the paper's evaluation.

The paper ends with directions it could not explore on its 2-rail
testbed; the simulation substrate can.  Three experiments:

* :func:`ext_rail_scaling` — aggregated bandwidth as rails are *added* to
  a node with a fixed I/O bus: the multi-rail gain saturates at the bus
  ceiling, quantifying how far the approach scales (the paper's §3.2 bus
  remark, extrapolated);
* :func:`ext_heterogeneous_mix` — the final strategy on a completely
  different rail mix (InfiniBand + SCI + gigabit TCP), showing the
  sampling-driven logic is generic plug-in code, not Myri/Quadrics
  tuning (§3.5: "although the strategy code is a generic plug-in ...");
* :func:`ext_parallel_pio_latency` — Fig 4(a) re-run with one extra PIO
  thread (§4 future work): the small-message regime where greedy
  balancing loses to a single rail disappears.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..core.sampling import sample_rails
from ..core.session import Session
from ..hardware.presets import GIGE_TCP, IB_DDR, MYRI_10G, PAPER_HOST, QUADRICS_QM500, SCI_D33X
from ..hardware.spec import PlatformSpec
from ..util.tables import Table
from ..util.units import KB, MB, format_size
from .pingpong import run_pingpong

__all__ = [
    "EXTENSIONS",
    "ext_rail_scaling",
    "ext_heterogeneous_mix",
    "ext_parallel_pio_latency",
]


def ext_rail_scaling(
    size: int = 8 * MB,
    reps: int = 2,
) -> Table:
    """Aggregated bandwidth vs number of rails on the paper host's I/O bus.

    Rails are added fastest-bandwidth first: Myri-10G, then Quadrics,
    then IB DDR (renamed to avoid driver-name collisions).  The table
    also shows the NIC-sum upper bound and the bus capacity.
    """
    rail_pool = [
        MYRI_10G,
        QUADRICS_QM500,
        IB_DDR.replace(name="ibddr2"),
    ]
    host = PAPER_HOST
    table = Table(
        ["rails", "split_balance bw (MB/s)", "sum of NICs (MB/s)", "bus (MB/s)"],
        title=f"Extension: rail-count scaling at {format_size(size)}",
    )
    for n in range(1, len(rail_pool) + 1):
        rails = tuple(rail_pool[:n])
        spec = PlatformSpec(rails=rails, n_nodes=2, host=host)
        samples = sample_rails(spec)
        session = Session(spec, strategy="split_balance", samples=samples)
        res = run_pingpong(session, size, reps=reps)
        table.add_row(
            "+".join(r.name for r in rails),
            res.bandwidth_MBps,
            sum(r.bw_MBps for r in rails),
            host.bus_MBps,
        )
    return table


def ext_heterogeneous_mix(
    sizes: Sequence[int] = (64 * KB, 1 * MB, 16 * MB),
    reps: int = 2,
) -> Table:
    """The final strategy on an IB + SCI + TCP cluster (not the paper's)."""
    spec = PlatformSpec(rails=(IB_DDR, SCI_D33X, GIGE_TCP), n_nodes=2, host=PAPER_HOST)
    samples = sample_rails(spec)
    table = Table(
        ["size", "best single rail (MB/s)", "split_balance (MB/s)", "gain"],
        title="Extension: heterogeneous mix (IB DDR + SCI + GigE TCP)",
    )
    for size in sizes:
        best = max(
            run_pingpong(
                Session(spec, strategy="single_rail", strategy_opts={"rail": r.name}),
                size,
                reps=reps,
            ).bandwidth_MBps
            for r in spec.rails
        )
        multi = run_pingpong(
            Session(spec, strategy="split_balance", samples=samples), size, reps=reps
        ).bandwidth_MBps
        table.add_row(format_size(size), best, multi, multi / best)
    return table


def ext_parallel_pio_latency(
    sizes: Sequence[int] = (256, 2 * KB, 8 * KB, 16 * KB),
    reps: int = 3,
) -> Table:
    """Fig 4(a) with the §4 future work enabled (one extra PIO thread)."""
    from ..hardware.presets import paper_platform

    base = paper_platform()
    mt = dataclasses.replace(base, host=base.host.replace(pio_workers=1))
    table = Table(
        [
            "size",
            "best single (us)",
            "greedy 1-thread (us)",
            "greedy 2-thread (us)",
        ],
        title="Extension: greedy 2-segment latency with parallel PIO (§4)",
    )
    for size in sizes:
        best = min(
            run_pingpong(
                Session(base, strategy="aggreg", strategy_opts={"rail": r.name}),
                size,
                segments=2,
                reps=reps,
            ).one_way_us
            for r in base.rails
        )
        g1 = run_pingpong(Session(base, strategy="greedy"), size, segments=2, reps=reps)
        g2 = run_pingpong(Session(mt, strategy="greedy"), size, segments=2, reps=reps)
        table.add_row(format_size(size), best, g1.one_way_us, g2.one_way_us)
    return table


#: name -> (function, takes init-time ``samples``), in EXPERIMENTS.md order;
#: what ``repro extensions`` and the EXPERIMENTS.md generator iterate.
EXTENSIONS = {
    "rail_scaling": (ext_rail_scaling, False),
    "heterogeneous_mix": (ext_heterogeneous_mix, False),
    "parallel_pio_latency": (ext_parallel_pio_latency, False),
}
