"""Metric definitions: names, units, directions, bounds — and the
arithmetic that turns one worker record into metric values.

``BENCHMARK.json`` at the repository root is :func:`benchmark_spec`
written out; the tests hold the two together.
"""

from __future__ import annotations

import statistics
from typing import Any, Optional

from .probes import PROBES
from .tracer import GENERATOR_LAYER, LAYERS, ROOT_LAYER

__all__ = [
    "RUN_SECONDS", "END_TO_END", "EXACT", "per_layer_specs", "benchmark_spec",
    "end_to_end", "per_layer",
]

#: how long one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 15

#: end-to-end metrics a user of the simulator sees: (name, unit, better,
#: bound).  The bound is the share of the parent's median by which the
#: metric may worsen.  The first three are gated by the driver through
#: ``BENCHMARK.json``; the last two are exact — the driver carries
#: ``fail_ratio`` as its ``attempted``/``failed``/``correct`` keys, and
#: ``sim_us`` (a simulated time: it repeats digit for digit, which the
#: driver rejects in a gated timing) rides with the per-layer metrics.
#: ``ops_per_s`` is bounded at three times the widest ten-run spread seen
#: on this box (4.9 %, ``flood_rdv``), not at the 10 % first hoped for.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sim_us", "us_sim", "lower", 0.0),
    ("fail_ratio", "ratio", "lower", 0.0),
)
#: end-to-end metrics that must repeat exactly between runs of one tree.
EXACT = ("sim_us", "fail_ratio")


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    specs: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        specs += [
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.share", "ratio", "lower"),
        ]
    specs += [
        ("sim.process.pump_share", "ratio", "lower"),
        ("sim.process.app_share", "ratio", "lower"),
        ("sim.engine.events", "count", "lower"),
        ("sim.engine.events_per_op", "1/op", "lower"),
        ("sim.engine.events_per_s", "1/s", "higher"),
        ("drivers.polls_per_op", "1/op", "lower"),
        ("drivers.eager_posts", "count", "lower"),
        ("drivers.dma_starts", "count", "lower"),
        ("core.strategies.commit_ratio", "ratio", "higher"),
        ("core.strategies.ops_per_packet", "ratio", "higher"),
        ("core.scheduler.pump_parks", "count", "lower"),
        ("core.scheduler.idle_skip_ratio", "ratio", "higher"),
    ]
    specs += [(name, unit, better) for name, (_fn, unit, better) in PROBES.items()]
    specs += [
        ("stack_efficiency", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("bench.generator.share", "ratio", "lower"),
    ]
    specs += [(n, u, b) for n, u, b, _bound in END_TO_END if n in EXACT]
    return specs


def benchmark_spec() -> dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    from .workloads import WORKLOADS

    return {
        "command": ["python3", "-m", "hostbench", "run"],
        "paths": ["hostbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": f"op = {w.op}; {w.why}"} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
            if n not in EXACT
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer_specs()
        ],
    }


def _ratio(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return a / b if a is not None and b else None


def end_to_end(record: dict[str, Any], setups: list[float]) -> dict[str, Any]:
    """The five end-to-end metrics of one worker record.

    ``ops_per_s`` is the median over passes of the rate of *correct*
    operations at the box's nominal speed (see :mod:`hostbench.refspeed`);
    ``setup_s`` the median over every set-up made for this run."""
    passes = record["passes"]
    ok = [p["attempted"] - p["failed"] for p in passes]
    # at nominal speed the pass would have taken net_s * speed
    rates = [n / (p["net_s"] * p["speed"]) for n, p in zip(ok, passes)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    q1, median, q3 = statistics.quantiles(rates, n=4)  # a run has >= 3 passes
    return {
        "ops_per_s": median,
        "ops_per_s.q1": q1,
        "ops_per_s.q3": q3,
        "ops_per_wall_s": statistics.median(n / p["net_s"] for n, p in zip(ok, passes)),
        "box_speed": statistics.median(p["speed"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": record["peak_rss_mb"],
        "sim_us": passes[0]["sim_us"],
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "pass_s": statistics.median(p["net_s"] for p in passes),
    }


def per_layer(
    record: dict[str, Any], e2e: dict[str, Any], probes: dict[str, Optional[float]]
) -> dict[str, Optional[float]]:
    """Every per-layer metric of a traced worker record (``None`` where a
    wrap target or probe is gone)."""
    trace = record["trace"]
    layers, counts, calls = trace["layers"], trace["counts"], trace["calls"]
    ops = record["ops_per_pass"]
    events = record["passes"][0]["events"]
    out: dict[str, Optional[float]] = {}
    for layer in LAYERS:
        row = layers[layer]
        for key in ("self_s", "calls", "share"):
            out[f"{layer}.{key}"] = None if row is None else row[key]
    for kind in ("pump", "app"):
        out[f"sim.process.{kind}_share"] = (
            None if layers["sim.process"] is None
            else trace["process"].get(kind, 0.0) / trace["total_s"]
        )
    events_per_s = events / e2e["pass_s"]
    out.update({
        "sim.engine.events": events,
        "sim.engine.events_per_op": events / ops,
        "sim.engine.events_per_s": events_per_s,
        "drivers.polls_per_op": _ratio(counts["polls"], ops),
        "drivers.eager_posts": counts["eager_posts"],
        "drivers.dma_starts": counts["dma_starts"],
        "core.strategies.commit_ratio": _ratio(counts["eager_posts"], calls["try_and_commit"]),
        "core.strategies.ops_per_packet": _ratio(calls["submit"] or None, counts["eager_posts"]),
        "core.scheduler.pump_parks": counts["pump_parks"],
        "core.scheduler.idle_skip_ratio": counts["idle_skip_ratio"],
    })
    out.update(probes)
    # the engine probe of this very process, not the probe set's
    out["sim.engine.probe_events_per_s"] = record["probe_events_per_s"]
    out.update({
        "stack_efficiency": _ratio(events_per_s, record["probe_events_per_s"]),
        "trace.overhead_ratio": trace["total_s"] / e2e["pass_s"],
        "trace.unattributed_share": layers[ROOT_LAYER]["share"],
        "bench.generator.share": layers[GENERATOR_LAYER]["share"],
        "sim_us": e2e["sim_us"],
        "fail_ratio": e2e["fail_ratio"],
    })
    return out
