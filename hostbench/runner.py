"""Run workloads in fresh worker processes and report the metrics.

One *run* of a workload is one measuring worker (warm-up pass, timed passes,
optionally a traced pass) between two groups of set-up-only workers
(``setup_s`` is the median over all set-ups made).  Workers run one after another —
the box has two cores and a second worker would share caches and memory
bandwidth with the first.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

from . import ROOT, SRC, metrics

__all__ = ["worker_env", "run_workload", "run_set", "contract_line", "render", "compare"]

#: set-up-only workers per run, besides the measuring worker's own set-up:
#: half before it and half after, so that one slow spell of the box (they
#: last seconds here) cannot hold the median of a 0.3 s quantity.
EXTRA_SETUPS = 8
#: a worker that has not answered by then is killed and counted as failed.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    """The environment workers run in: no ``REPRO_*`` knobs (the default
    backend and flows mode are what is measured), one thread, a fixed
    hash seed, and a native-core cache inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "repro-native")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _json_from(cmd: list[str], env: dict[str, str], timeout: float) -> dict[str, Any]:
    """Run ``cmd`` to its end and parse the last line it printed; raises
    ``RuntimeError`` if it dies, hangs or prints something else."""
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{' '.join(cmd[1:6])} killed after {timeout}s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"{' '.join(cmd[1:6])} exited {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RuntimeError(f"{' '.join(cmd[1:6])} printed no result: {exc!r}") from None


def warm_native(env: dict[str, str]) -> dict[str, str]:
    """Untimed pre-step: compile the native event core into the cache if it
    is not there yet, so no worker's ``setup_s`` includes a C build."""
    code = (
        "import json; from repro.sim.backend import flows_mode, resolve_backend;"
        " print(json.dumps({'backend': resolve_backend(), 'flows': flows_mode()}))"
    )
    return _json_from([sys.executable, "-c", code], env, timeout=600)


def _spawn_worker(
    env: dict[str, str], workload: str, mode: str, seed: int, seconds: float,
    scale: float, spans_out: Optional[str] = None,
) -> dict[str, Any]:
    """One worker subprocess, started now (it times its set-up from here)."""
    cmd = [
        sys.executable, "-m", "hostbench", "worker", "--workload", workload,
        "--mode", mode, "--seed", str(seed), "--seconds", str(seconds),
        "--scale", str(scale), "--started", repr(time.monotonic()),
    ]
    if spans_out:
        cmd += ["--spans-out", f"{spans_out}.{workload}.jsonl"]
    return _json_from(cmd, env, WORKER_TIMEOUT_S)


def run_workload(
    env: dict[str, str], workload: str, seed: int, seconds: float, scale: float,
    trace: bool, probes: Optional[dict[str, Optional[float]]] = None,
    spans_out: Optional[str] = None,
) -> dict[str, Any]:
    """One run of one workload.  A worker that crashes or hangs does not
    propagate: the run is reported with every operation failed."""
    def set_ups(n: int) -> list[dict[str, Any]]:
        return [
            _spawn_worker(env, workload, "setup", seed, seconds, scale) for _ in range(n)
        ]

    try:
        workers = set_ups(EXTRA_SETUPS // 2)
        record = _spawn_worker(
            env, workload, "traced" if trace else "timed", seed, seconds, scale, spans_out
        )
        workers += [record] + set_ups(EXTRA_SETUPS - EXTRA_SETUPS // 2)
    except RuntimeError as exc:
        return {
            "workload": workload, "crashed": str(exc), "notes": [str(exc)],
            "end_to_end": {"fail_ratio": 1.0, "attempted": 1, "failed": 1},
        }
    setups = [w["setup_s"] for w in workers]
    e2e = metrics.end_to_end(record, setups)
    e2e["setup_wall_s"] = statistics.median(w["setup_wall_s"] for w in workers)
    out = {
        "workload": workload,
        "backend": record["backend"],
        "flows": record["flows"],
        "ops_per_pass": record["ops_per_pass"],
        "passes": record["passes"],
        "setups_s": setups,
        "events": record["passes"][0]["events"],
        "end_to_end": e2e,
        "notes": record["notes"],
    }
    if trace:
        out["per_layer"] = metrics.per_layer(record, e2e, probes or {})
        out["trace"] = record["trace"]
    return out


def run_probes(env: dict[str, str]) -> tuple[dict[str, Optional[float]], list[str]]:
    """The isolated probes, once, in a process of their own."""
    cmd = [sys.executable, "-m", "hostbench", "worker", "--mode", "probes"]
    try:
        out = _json_from(cmd, env, WORKER_TIMEOUT_S)
    except RuntimeError as exc:
        return {}, [f"probe worker failed: {exc}"]
    return out["values"], out["notes"]


def hygiene(seed: int, seconds: float, scale: float, resolved: dict[str, str]) -> dict[str, Any]:
    """What was measured, on what, from which tree."""
    def git(*args: str) -> Optional[str]:
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None  # not a git checkout (the driver's is not)

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "hash_seed": "0",
        **resolved,
    }


def run_set(
    workloads: list[str], seed: int, seconds: float, scale: float, trace: bool,
    spans_out: Optional[str] = None,
) -> dict[str, Any]:
    """Every named workload once, serially; plus the probes when tracing."""
    env = worker_env()
    resolved = warm_native(env)
    probes, notes = run_probes(env) if trace else ({}, [])
    return {
        "hostbench": 1,
        "hygiene": hygiene(seed, seconds, scale, resolved),
        "probe_notes": notes,
        "workloads": {
            name: run_workload(env, name, seed, seconds, scale, trace, probes, spans_out)
            for name in workloads
        },
    }


# --------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------- #
def contract_line(run: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The one JSON object the driver reads: with ``--trace 0`` the gated
    end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
    per-layer metrics (a metric whose target is gone reads 0: no call of
    that layer was seen)."""
    spec = metrics.benchmark_spec()
    e2e = run["end_to_end"]
    if trace:
        values = run.get("per_layer", {})
        wanted = spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    return {
        "correct": e2e["failed"] == 0,
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"]) or 0.0, "unit": m["unit"]}
            for m in wanted
        },
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(result: dict[str, Any]) -> str:
    """Every metric by name, with its unit."""
    h = result["hygiene"]
    sha = (h["git_sha"] or "no-git")[:10] + ("+dirty" if h["git_dirty"] else "")
    lines = [
        f"hostbench seed={h['seed']} seconds={h['seconds']} scale={h['scale']}"
        f" git={sha} python={h['python']} nproc={h['nproc']}"
        f" backend={h['backend']} flows={h['flows']} hash_seed={h['hash_seed']}"
    ]
    lines += [f"  note: {n}" for n in result["probe_notes"]]
    units = {n: u for n, u, _b, _bound in metrics.END_TO_END}
    for name, run in result["workloads"].items():
        lines.append(f"== {name} ==")
        e2e = run["end_to_end"]
        if "crashed" in run:
            lines.append(f"  CRASHED: {run['crashed']}")
            lines.append("  fail_ratio = 1 ratio (worker lost)")
            continue
        lines.append(
            f"  {e2e['passes']} timed passes of {run['ops_per_pass']} ops after 1 warm-up"
            f" (median pass {e2e['pass_s']:.4g} s), {len(run['setups_s'])} set-ups,"
            f" {run['events']} events/pass"
        )
        lines.append(
            f"  ops_per_s = {_fmt(e2e['ops_per_s'])} {units['ops_per_s']} at nominal box speed"
            f"  (quartiles {_fmt(e2e['ops_per_s.q1'])} .. {_fmt(e2e['ops_per_s.q3'])};"
            f" raw ops_per_wall_s = {_fmt(e2e['ops_per_wall_s'])},"
            f" box_speed = {_fmt(e2e['box_speed'])})"
        )
        lines.append(
            f"  setup_s = {_fmt(e2e['setup_s'])} {units['setup_s']} at nominal box speed"
            f"  (raw setup_wall_s = {_fmt(e2e['setup_wall_s'])})"
        )
        for metric in ("peak_rss_mb", "sim_us"):
            lines.append(f"  {metric} = {_fmt(e2e[metric])} {units[metric]}")
        lines.append(
            f"  fail_ratio = {_fmt(e2e['fail_ratio'])} ratio"
            f"  ({e2e['failed']} failed / {e2e['attempted']} attempted)"
        )
        if "per_layer" in run:
            per_layer_units = {n: u for n, u, _b in metrics.per_layer_specs()}
            for metric, value in run["per_layer"].items():
                lines.append(f"  {metric} = {_fmt(value)} {per_layer_units.get(metric, '')}")
            lines.append("  largest spans by self time:")
            for row in run["trace"]["names"][:10]:
                lines.append(
                    f"    {row['self_s']:8.4f} s {row['calls']:>9} calls  {row['name']}"
                )
        lines += [f"  note: {n}" for n in run["notes"]]
    return "\n".join(lines)


def compare(first: dict[str, Any], second: dict[str, Any]) -> tuple[list[str], bool]:
    """Per-metric gap between two sets of one tree; ``ok`` is False when an
    end-to-end metric moved by more than its bound (at all, for the exact
    ones, and for ``sim.engine.events``)."""
    lines, ok = [], True
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        lines.append(f"== {name} ==")
        if "crashed" in a or "crashed" in b:
            lines.append("  a worker crashed: not comparable")
            ok = False
            continue
        rows = [
            (metric, a["end_to_end"][metric], b["end_to_end"][metric], bound)
            for metric, _unit, _better, bound in metrics.END_TO_END
        ]
        rows.append(("sim.engine.events", a["events"], b["events"], 0.0))
        for metric, va, vb, bound in rows:
            gap = abs(va - vb) / max(abs(va), abs(vb)) if va != vb else 0.0
            within = gap <= bound
            ok &= within
            detail = ""
            if metric == "ops_per_s":
                detail = "".join(
                    f"  [{_fmt(r['end_to_end']['ops_per_s.q1'])} .. "
                    f"{_fmt(r['end_to_end']['ops_per_s.q3'])}]" for r in (a, b)
                )
            lines.append(
                f"  {metric:18s} {_fmt(va):>12} vs {_fmt(vb):>12}  gap {gap:7.2%}"
                f"  bound {bound:.0%}  {'ok' if within else 'DIFFERS'}{detail}"
            )
    return lines, ok
