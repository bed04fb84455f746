"""Isolated probes: each layer timed on its own, outside any workload.

A probe is a function returning one number.  They bound what a change to
one layer can return on any workload (cost per call times the calls the
traced pass counted) and give ``stack_efficiency`` its denominator.
Probes are seeded and small; a probe whose target is gone reads ``None``.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import statistics
from time import perf_counter
from typing import Callable, Optional

__all__ = ["PROBES", "run_probes", "engine_events_per_s"]

_SEED = 20070326  # fixed: probes compare commits, not inputs


def _median_time(fn: Callable[[], object], reps: int) -> float:
    times = []
    for _ in range(reps):
        gc.collect()
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def engine_events_per_s() -> float:
    """100k seeded timer events, one in four cancelled, on the default core."""
    from repro.sim.engine import Simulator

    n = 100_000

    def run():
        rng = random.Random(_SEED)
        sim = Simulator()
        handles = [sim.schedule(rng.random() * 1000.0, int) for _ in range(n)]
        for handle in handles[::4]:
            handle.cancel()
        sim.run_until_idle()
        return sim

    return (n - n // 4) / _median_time(run, 5)


def process_switches_per_s() -> float:
    from repro.sim.engine import Simulator
    from repro.sim.process import Timeout, spawn

    procs, steps = 20, 2_500

    def body(dt):
        for _ in range(steps):
            yield Timeout(dt)

    def run():
        sim = Simulator()
        for i in range(procs):
            spawn(sim, body(1.0 + i / procs), name=f"probe{i}")
        sim.run_until_idle()

    return procs * steps / _median_time(run, 5)


def flows_reallocs_per_s() -> float:
    """200 flows over 24 shared links; every start and drain reallocates."""
    from repro.sim.engine import Simulator
    from repro.sim.flows import Link, make_flow_network

    n_flows = 200

    def run():
        rng = random.Random(_SEED)
        sim = Simulator()
        net = make_flow_network(sim)
        links = [Link(f"l{i}", 1000.0) for i in range(24)]
        for _ in range(n_flows):
            net.start_flow(rng.sample(links, 3), rng.randrange(10_000, 1_000_000))
        sim.run_until_idle()
        if net.completed_count != n_flows:
            raise RuntimeError(f"{net.completed_count}/{n_flows} flows completed")

    return 2 * n_flows / _median_time(run, 5)


def _p1024_platform():
    from repro.hardware.platform import Platform
    from repro.hardware.topology import rail_optimized_platform
    from repro.sim.engine import Simulator

    return Platform(Simulator(), rail_optimized_platform(1024))


def hardware_build_s_p1024() -> float:
    return _median_time(_p1024_platform, 5)


def hardware_routes_per_s() -> float:
    platform = _p1024_platform()
    rng = random.Random(_SEED)
    pairs = [tuple(rng.sample(range(1024), 2)) for _ in range(20_000)]

    def run():
        for src, dst in pairs:
            platform.dma_path(0, src, dst)
            platform.wire_latency_us(0, src, dst)

    return len(pairs) / _median_time(run, 3)


def session_build_s() -> float:
    from repro.core.session import Session
    from repro.hardware.presets import paper_platform

    spec = paper_platform()
    n = 100

    def run():
        for _ in range(n):
            Session(spec, strategy="aggreg_multirail")

    return _median_time(run, 5) / n


def sampling_s() -> float:
    from repro.core.sampling import sample_rails
    from repro.hardware.presets import paper_platform

    return _median_time(lambda: sample_rails(paper_platform()), 5)


def matching_ops_per_s() -> float:
    """Half the arrivals find a posted receive, half are unexpected."""
    from repro.core.matching import MatchingTable
    from repro.core.packet import Payload
    from repro.core.request import RecvRequest
    from repro.sim.engine import Simulator

    n = 20_000
    payload = Payload.of(64)

    def run():
        sim = Simulator()
        table = MatchingTable()
        for seq in range(n // 2):
            table.post_recv(0, 1, RecvRequest(sim, 0, 1, -1))
            table.arrive(0, 1, seq, "eager", payload=payload)
        for seq in range(n // 2):
            table.arrive(0, 2, seq, "eager", payload=payload)
            table.post_recv(0, 2, RecvRequest(sim, 0, 2, -1))

    return 2 * n / _median_time(run, 5)


def obs_counter_adds_per_s() -> float:
    from repro.obs.metrics import MetricsRegistry

    counter = MetricsRegistry().counter("engine.sweeps")
    n = 500_000

    def run():
        add = counter.add
        for _ in range(n):
            add()

    return n / _median_time(run, 5)


def obs_spans_per_s() -> float:
    from repro.obs.spans import SpanRecorder

    n = 50_000

    def run():
        rec = SpanRecorder(enabled=True)
        for i in range(n):
            rec.end(rec.begin(0, "pump", "sweep", "sweep", float(i)), float(i) + 0.5)

    return n / _median_time(run, 5)


def obs_spans_overhead_ratio() -> float:
    """A shortened ``flood_eager`` pass with the repo's own span tracing on,
    over the same pass with it off."""
    from .workloads import WORKLOADS

    workload = WORKLOADS["flood_eager"]
    plain = workload.prepare(_SEED, 0.2)
    traced = dataclasses.replace(plain, trace=True)
    workload.run_pass(plain, None)  # warm-up

    def check(ctx):
        result = workload.run_pass(ctx, None)
        if result.failed:
            raise RuntimeError(f"probe flood failed: {result.notes}")

    off = _median_time(lambda: check(plain), 3)
    on = _median_time(lambda: check(traced), 3)
    return on / off


def faults_cases_per_s() -> float:
    """The chaos grid (every strategy x 20 seeds); a violation voids it."""
    from repro.core.strategies import available_strategies
    from repro.faults.chaos import ChaosCase, run_case

    cases = [ChaosCase(s, seed) for s in available_strategies() for seed in range(20)]

    def run():
        bad = [c for c in cases if not run_case(c)["ok"]]
        if bad:
            raise RuntimeError(f"{len(bad)} chaos cases violated an invariant")

    return len(cases) / _median_time(run, 1)


#: metric name -> (probe, unit, direction)
PROBES: dict[str, tuple[Callable[[], float], str, str]] = {
    "sim.engine.probe_events_per_s": (engine_events_per_s, "1/s", "higher"),
    "sim.process.probe_switches_per_s": (process_switches_per_s, "1/s", "higher"),
    "sim.flows.probe_reallocs_per_s": (flows_reallocs_per_s, "1/s", "higher"),
    "hardware.probe_build_s_p1024": (hardware_build_s_p1024, "s", "lower"),
    "hardware.probe_routes_per_s": (hardware_routes_per_s, "1/s", "higher"),
    "core.session.probe_build_s": (session_build_s, "s", "lower"),
    "core.sampling.probe_s": (sampling_s, "s", "lower"),
    "core.matching.probe_ops_per_s": (matching_ops_per_s, "1/s", "higher"),
    "obs.probe_counter_adds_per_s": (obs_counter_adds_per_s, "1/s", "higher"),
    "obs.probe_spans_per_s": (obs_spans_per_s, "1/s", "higher"),
    "obs.spans_overhead_ratio": (obs_spans_overhead_ratio, "ratio", "lower"),
    "faults.probe_cases_per_s": (faults_cases_per_s, "1/s", "higher"),
}


def run_probes() -> tuple[dict[str, Optional[float]], list[str]]:
    """Every probe once; a probe that cannot run reads ``None`` plus a note."""
    values: dict[str, Optional[float]] = {}
    notes: list[str] = []
    for name, (probe, _unit, _better) in PROBES.items():
        try:
            values[name] = probe()
        except Exception as exc:  # a deleted layer must not stop the others
            values[name] = None
            notes.append(f"probe {name} unavailable: {exc!r}")
    return values, notes
