#!/usr/bin/env python3
"""Look inside the engine: trace a multi-rail transfer and export it.

Enables span tracing, pushes a mixed workload through the final
strategy, and then shows every observability surface the simulator has:

* the nested span timeline exported as Chrome trace-event JSON — drop
  ``trace.json`` onto https://ui.perfetto.dev to scrub through the pump
  sweeps, per-rail PIO/DMA activity and rendezvous handshakes;
* the per-request lifecycle report splitting each send's latency into
  queueing, wire time and the idle-rail poll tax of the paper's Fig 6;
* the classic text-mode views (gantt, rail usage) and the metrics
  registry snapshot.

Run:  python examples/trace_export.py [-o trace.json]
"""

import sys

from repro import Session, paper_platform, sample_rails
from repro.obs import lifecycle_report, lifecycle_table, poll_tax_by_rail, write_chrome_trace
from repro.obs.timeline import gantt, rail_usage_table
from repro.util.units import KB, MB, format_size


def main() -> None:
    out = sys.argv[sys.argv.index("-o") + 1] if "-o" in sys.argv else "trace.json"
    plat = paper_platform()
    samples = sample_rails(plat)
    session = Session(plat, strategy="split_balance", samples=samples, trace=True)
    a, b = session.interface(0), session.interface(1)

    sizes = [100, 40, 2 * KB, 3 * MB, 60, 24 * KB]
    print("submitting:", ", ".join(format_size(s) for s in sizes))
    recvs = [b.irecv(0, 1) for _ in sizes]
    for s in sizes:
        a.isend(1, 1, s)
    session.run_until_idle()
    assert all(r.done for r in recvs)

    n = write_chrome_trace(session, out)
    print(f"\nwrote {n} span events to {out} (open in https://ui.perfetto.dev)")

    rows = lifecycle_report(session, node_id=0)
    print()
    print(lifecycle_table(rows).render())
    tax = poll_tax_by_rail(rows)
    print("\nidle-poll tax by rail:", {k: f"{v:.2f}us" for k, v in sorted(tax.items())})

    print("\nNIC activity gantt (node 0; # = PIO on the CPU, = = DMA):")
    print(gantt(session, 0))

    print()
    print(rail_usage_table(session))
    snap = session.metrics.snapshot()
    print(f"\nmetrics: sweeps={snap['engine.sweeps']}")
    for name, h in snap.items():
        if name.startswith("engine.commit.latency_us") and h["count"]:
            mean = h["total"] / h["count"]
            print(f"  {name}: n={h['count']} mean={mean:.2f}us max={h['max']:.2f}us")


if __name__ == "__main__":
    main()
