"""A 256-node barrier stays under a wall-clock budget: the active-set pump
makes idle nodes free.  The run also reports what its nodes hold and what
the cyclic collector cost; ``tests/integration/test_node_cost.py`` holds
the per-node ceilings, so the report is not gated (``-s`` shows it)."""

import gc
import time
import tracemalloc

from repro.bench.scale import run_collective
from repro.core.session import Session

P = 256
BUDGET_S = 30.0  # with tracemalloc on


def test_a_256_node_barrier_runs_under_its_wall_clock_budget(monkeypatch):
    # what the nodes hold when the run ends, read while the session is alive
    held = {}
    run_until_idle = Session.run_until_idle

    def measured(session, *args, **kwargs):
        run_until_idle(session, *args, **kwargs)
        gc.collect()
        held["objects"] = len(gc.get_objects()) - objects_before
        held["kb"] = tracemalloc.get_traced_memory()[0] / 1024

    monkeypatch.setattr(Session, "run_until_idle", measured)
    collector = {"n": 0, "s": 0.0, "t0": 0.0}

    def collecting(phase, info):
        if phase == "start":
            collector["t0"] = time.perf_counter()
        else:
            collector["n"] += 1
            collector["s"] += time.perf_counter() - collector["t0"]

    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    gc.callbacks.append(collecting)
    try:
        t0 = time.perf_counter()
        r = run_collective("multilane_barrier", P)
        wall = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(collecting)
        tracemalloc.stop()
    print(
        f"\n{P}-node barrier: {r.elapsed_us:.2f} us simulated, {r.events} events,"
        f" {wall:.2f} s wall (tracemalloc on)"
        f"\nper node: {r.engines_built} engines built, {held['objects'] / P:.1f} tracked"
        f" objects, {held['kb'] / P:.1f} traced KB"
        f"\ncollector: {collector['n']} collections, {collector['s']:.3f} s,"
        f" {collector['s'] / wall:.1%} of the run (measured()'s own collection included)"
    )
    assert wall < BUDGET_S, f"{P}-node barrier took {wall:.1f}s (budget {BUDGET_S:g}s)"
