#!/usr/bin/env python3
"""Compare every strategy of the paper across the message-size spectrum.

Reproduces the paper's incremental story in one table: the single-rail
references, the greedy balancer (§3.2), aggregation-on-the-fastest-NIC
(§3.3), and the final adaptive-stripping strategy (§3.4).  Small messages
are shown as one-way latency, large ones as bandwidth, and the rail usage
summary shows where the final strategy actually put the bytes.

Run:  python examples/multirail_strategies.py
"""

from repro import Session, paper_platform, run_pingpong, sample_rails
from repro.obs.timeline import rail_byte_shares, rail_usage_table
from repro.util.tables import Table
from repro.util.units import KB, MB, format_size


def make_session(strategy: str, samples):
    plat = paper_platform()
    if strategy.startswith("single:"):
        rail = strategy.split(":", 1)[1]
        return Session(plat, strategy="aggreg", strategy_opts={"rail": rail})
    if strategy == "split_balance":
        return Session(plat, strategy=strategy, samples=samples)
    return Session(plat, strategy=strategy)


def main() -> None:
    plat = paper_platform()
    print("sampling rails once (like NewMadeleine does at init time)...")
    samples = sample_rails(plat)
    for name in samples.rail_names:
        s = samples.get(name)
        print(f"  {name}: fitted {s.bw_MBps:.0f} MB/s + {s.overhead_us:.1f}us overhead")
    print(f"  stripping ratios: {samples.ratios(samples.rail_names)}")
    print()

    strategies = [
        "single:myri10g",
        "single:qsnet2",
        "greedy",
        "aggreg_multirail",
        "split_balance",
    ]
    sizes = [4, 1 * KB, 16 * KB, 128 * KB, 1 * MB, 8 * MB]

    table = Table(
        ["strategy"]
        + [
            f"{format_size(s)} " + ("lat us" if s <= 16 * KB else "bw MB/s")
            for s in sizes
        ],
        title="Strategy comparison, 2-segment messages (latency below 16K, bandwidth above)",
    )
    for strategy in strategies:
        row: list[object] = [strategy]
        for size in sizes:
            res = run_pingpong(make_session(strategy, samples), size, segments=2)
            row.append(res.one_way_us if size <= 16 * KB else res.bandwidth_MBps)
        table.add_row(*row)
    print(table)
    print()

    # where do the bytes go under the final strategy?
    session = make_session("split_balance", samples)
    run_pingpong(session, 8 * MB, segments=1)
    print(rail_usage_table(session))
    shares = rail_byte_shares(session, node_id=0)
    print(f"\nnode0 outgoing byte shares: " + ", ".join(f"{k}={v:.1%}" for k, v in shares.items()))


if __name__ == "__main__":
    main()
