#!/usr/bin/env python3
"""Strategies on a *different* heterogeneous mix than the paper's testbed.

NewMadeleine's point is that the strategy code is generic: nothing in
``split_balance`` knows about Myri-10G or Quadrics — ratios and thresholds
come from init-time sampling.  This example builds a 3-rail cluster
(InfiniBand DDR + SCI + gigabit TCP), samples it, and shows that:

* small messages ride the lowest-latency rail (SCI here),
* large messages are stripped across the fast rails with sampled ratios,
* the TCP rail is essentially ignored by the adaptive split (its fitted
  bandwidth share is tiny and chunks below ``MIN_CHUNK`` are not worth a
  DMA) — graceful degradation, not a crash.

Run:  python examples/heterogeneous_cluster.py
"""

from repro import IB_DDR, GIGE_TCP, SCI_D33X, PlatformSpec, Session, run_pingpong, sample_rails
from repro.hardware.presets import PAPER_HOST
from repro.obs.timeline import rail_byte_shares
from repro.util.units import KB, MB, format_size


def main() -> None:
    plat = PlatformSpec(rails=(IB_DDR, SCI_D33X, GIGE_TCP), n_nodes=2, host=PAPER_HOST)
    print("rails:", ", ".join(f"{r.name} ({r.bw_MBps:.0f} MB/s, {r.lat_us}us wire)" for r in plat.rails))

    samples = sample_rails(plat)
    print("\nsampled models:")
    for name in samples.rail_names:
        s = samples.get(name)
        print(f"  {name:>6}: {s.bw_MBps:8.1f} MB/s + {s.overhead_us:6.1f}us")
    ratios = samples.ratios(samples.rail_names)
    print("  ratios:", {k: round(v, 3) for k, v in ratios.items()})

    print(f"\n{'size':>8} {'1-rail ib (MB/s)':>18} {'split_balance (MB/s)':>22}")
    for size in (64 * KB, 512 * KB, 4 * MB, 16 * MB):
        single = run_pingpong(
            Session(plat, strategy="single_rail", strategy_opts={"rail": "ibddr"}),
            size,
        )
        multi_session = Session(plat, strategy="split_balance", samples=samples)
        multi = run_pingpong(multi_session, size)
        print(
            f"{format_size(size):>8} {single.bandwidth_MBps:>18.1f}"
            f" {multi.bandwidth_MBps:>22.1f}"
        )

    # byte distribution of the last run
    shares = rail_byte_shares(multi_session, node_id=0)
    print("\nnode0 byte shares at 16M:", {k: f"{v:.1%}" for k, v in shares.items()})

    # small messages: which rail carries them?
    session = Session(plat, strategy="split_balance", samples=samples)
    lat = run_pingpong(session, 8, segments=2)
    shares = rail_byte_shares(session, node_id=0)
    carrier = max(shares, key=lambda k: shares[k])
    print(f"\n8B 2-seg latency {lat.one_way_us:.2f}us — small messages ride {carrier!r}")


if __name__ == "__main__":
    main()
