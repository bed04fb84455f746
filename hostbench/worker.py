"""One workload in one fresh process: set-up, warm-up, timed passes, trace.

The parent (:mod:`hostbench.runner`) starts this as a subprocess and reads
one JSON object from its standard output.  The functions are importable so
the tests can drive them in-process with a workload of their own.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import TYPE_CHECKING, Any, Optional

from . import probes
from .refspeed import SpeedSampler
from .tracer import HostTracer

# Nothing above may import ``repro``: importing it is part of the set-up
# that :func:`work` times.
if TYPE_CHECKING:  # pragma: no cover
    from .workloads import PassResult, Workload

__all__ = ["set_up", "timed_passes", "traced_pass", "work"]

#: fewest timed passes a run reports a median over.
MIN_PASSES = 3


def _noop():
    return
    yield


def set_up(workload: "Workload", seed: int, scale: float) -> tuple[Any, dict[str, str]]:
    """Everything a user pays before the first pass can start."""
    from repro.sim.backend import flows_mode, resolve_backend

    env = {"backend": resolve_backend(), "flows": flows_mode()}
    ctx = workload.prepare(seed, scale)
    session = workload.first_session(ctx)
    session.spawn(_noop(), name="hostbench.first")
    session.run_until_idle()
    return ctx, env


def _guarded_pass(workload: "Workload", ctx: Any) -> tuple[dict[str, float], "PassResult"]:
    """One pass with its timing; a pass that raises fails all its operations."""
    from .workloads import PassResult

    gc.collect()
    t0 = time.perf_counter()
    with SpeedSampler() as sampler:
        try:
            result = workload.run_pass(ctx, None)
        except Exception as exc:  # counted, never fatal to the other passes
            result = PassResult(ctx.ops, ctx.ops, -1.0, 0, [f"pass raised {exc!r}"])
    wall = time.perf_counter() - t0
    timing = {
        "wall_s": wall,
        #: wall time without the pace car's slices
        "net_s": wall - sampler.spent_s,
        "speed": sampler.speed,
        "speed_samples": len(sampler.samples),
    }
    return timing, result


def timed_passes(workload: "Workload", ctx: Any, seconds: float) -> dict[str, Any]:
    """One untimed warm-up pass, then identical timed passes for ``seconds``
    (at least :data:`MIN_PASSES`).  The warm-up's simulated result is the
    reference every timed pass must repeat exactly."""
    _timing, warm = _guarded_pass(workload, ctx)
    notes = [f"warm-up: {n}" for n in warm.notes]
    passes = []
    spent = 0.0
    while len(passes) < MIN_PASSES or spent < seconds:
        timing, result = _guarded_pass(workload, ctx)
        spent += timing["wall_s"]
        if (result.sim_us, result.events) != (warm.sim_us, warm.events):
            result.failed = result.attempted
            result.notes.append(
                f"simulated result drifted between passes: {result.sim_us!r} us /"
                f" {result.events} events vs {warm.sim_us!r} / {warm.events}"
            )
        notes += [f"pass {len(passes)}: {n}" for n in result.notes]
        passes.append({
            **timing,
            "attempted": result.attempted,
            "failed": result.failed,
            "sim_us": result.sim_us,
            "events": result.events,
        })
    return {"passes": passes, "notes": notes}


class _SessionCounts:
    """Exact counts read off each finished session (public attributes
    only; a group whose attributes are gone reads ``None``)."""

    _DRIVER_KEYS = ("polls", "eager_posts", "dma_starts")
    _HEALTH_KEYS = ("pump_parks", "idle_skip_ratio")

    def __init__(self) -> None:
        self.values = dict.fromkeys(self._DRIVER_KEYS + self._HEALTH_KEYS, 0.0)
        self.gone: set[str] = set()
        self.sessions = 0

    def __call__(self, session) -> None:
        self.sessions += 1
        v = self.values
        try:
            for engine in session.engines.built():
                for driver in engine.drivers:
                    v["polls"] += driver.polls
                    v["eager_posts"] += driver.eager_posted
                    v["dma_starts"] += driver.dma_started
        except AttributeError:
            self.gone.update(self._DRIVER_KEYS)
        try:
            health = session.active_health()
            v["pump_parks"] += health["pump_parks"]
            v["idle_skip_ratio"] += health["idle_skip_ratio"]
        except (AttributeError, KeyError):
            self.gone.update(self._HEALTH_KEYS)

    def result(self) -> dict[str, Optional[float]]:
        out = {k: None if k in self.gone else x for k, x in self.values.items()}
        if out["idle_skip_ratio"] is not None and self.sessions:
            out["idle_skip_ratio"] /= self.sessions  # mean over the pass's sessions
        return out


def traced_pass(
    workload: "Workload", ctx: Any, spans_out: Optional[str] = None,
    tracer: Optional[HostTracer] = None,
) -> dict[str, Any]:
    """One extra pass with the timing wrappers installed."""
    tracer = tracer or HostTracer()
    counts = _SessionCounts()
    tracer.install()
    try:
        gc.collect()
        tracer.start()
        try:
            result = workload.run_pass(ctx, counts)
            notes = [f"traced pass: {n}" for n in result.notes]
        except Exception as exc:
            result = None
            notes = [f"traced pass raised {exc!r}"]
        tracer.stop()
    finally:
        tracer.uninstall()
    if spans_out:
        tracer.write_spans(spans_out)
    notes += [f"wrap target missing: {name} ({why})" for name, why in tracer.missing.items()]
    if tracer.spans_dropped:
        notes.append(f"span store full: {tracer.spans_dropped} spans not kept")
    names = tracer.by_name()
    return {
        "total_s": tracer.total_s,
        "ok": result is not None and result.failed == 0,
        "layers": tracer.by_layer(),
        "names": names[:25],
        "calls": {
            "submit": tracer.calls_of("NodeEngine.submit"),
            "try_and_commit": tracer.calls_of(".try_and_commit"),
        },
        "process": {
            row["name"].rsplit(".", 1)[-1]: row["self_s"]
            for row in names
            if row["name"].startswith("sim.process.resume.")
        },
        "counts": counts.result(),
        "spans": len(tracer.span_start),
        "spans_dropped": tracer.spans_dropped,
        "missing": tracer.missing,
        "notes": notes,
    }


def work(
    name: str, seed: int, seconds: float, scale: float, mode: str,
    started: float, spans_out: Optional[str] = None,
) -> dict[str, Any]:
    """The whole worker.  ``mode`` is ``setup`` (stop after set-up),
    ``timed`` or ``traced``; ``started`` is the parent's monotonic clock
    just before it launched this process."""
    with SpeedSampler() as sampler:
        from .workloads import WORKLOADS  # imports repro: set-up cost

        workload = WORKLOADS[name]
        ctx, env = set_up(workload, seed, scale)
    setup_wall = time.monotonic() - started
    out: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "ops_per_pass": ctx.ops,
        "setup_wall_s": setup_wall,
        # at the box's nominal speed, like ops_per_s (interpreter start-up,
        # before the sampler exists, is taken to have run at the same speed)
        "setup_s": (setup_wall - sampler.spent_s) * sampler.speed,
        **env,
    }
    if mode == "setup":
        return out
    out.update(timed_passes(workload, ctx, seconds))
    # before the traced pass, whose span store is not the program's memory
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "traced":
        out["trace"] = traced_pass(workload, ctx, spans_out)
        out["notes"] += out["trace"].pop("notes")
        # same process as the workload: the denominator of stack_efficiency
        try:
            out["probe_events_per_s"] = probes.engine_events_per_s()
        except Exception as exc:
            out["probe_events_per_s"] = None
            out["notes"].append(f"engine probe unavailable: {exc!r}")
    return out
