"""One scaled-down traced run of all four hostbench workloads, and the
checks on its record.

It fails on a failed operation, on a traced pass that raised (its
per-layer metrics still read, from the spans before the raise, and its
``fail_ratio`` is 0), on a per-layer metric that reads null — a renamed
or deleted wrap target of ``hostbench/tracer.py`` — on a header that
names another allocator than the one there is, when the tracer's
``FlowNetwork`` targets stop counting (calls on the two workloads that
start flows, none on the two that do not), or when
``core.strategies.commit_ratio`` falls below its floor: wrappers posted
over strategy consultations, exact counts that repeat digit for digit,
so a pump that goes back to asking strategies with nothing to send fails
here deterministically.  Timings are not checked: a shared box is too
noisy for the bounds in ``BENCHMARK.json``.

The record and the run's output are left in pytest's ``tmp_path``
(``--basetemp`` names where).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 0.9 x what was measured on this very run (seed 1, scale 0.05):
# 0.4937 / 0.4995 / 0.2040 / 0.5000 (0.2935 / 0.1665 / 0.1358 /
# 0.2224 before the pump asked first); flood_rdv: 0.9 x 0.6658,
# measured once the pump stopped asking a strategy that holds
# only large segments about a rail whose DMA engine is busy
COMMIT_RATIO_FLOOR = {
    "figures": 0.444,
    "flood_eager": 0.449,
    "flood_rdv": 0.599,
    "collectives_p1024": 0.450,
}
FLOW_WORKLOADS = ("flood_rdv", "figures")


def record_problems(record):
    """What is wrong with a hostbench record, one line each."""
    bad = []
    if record["hygiene"]["flows"] != "scalar":
        bad.append(f"header: flows == {record['hygiene']['flows']!r}")
    if len(record["workloads"]) != len(COMMIT_RATIO_FLOOR):
        bad.append(f"{len(record['workloads'])} workloads, not {len(COMMIT_RATIO_FLOOR)}")
    for name, w in record["workloads"].items():
        flow_calls = w["per_layer"]["sim.flows.calls"]
        if (flow_calls > 0) != (name in FLOW_WORKLOADS):
            bad.append(f"{name}: sim.flows.calls = {flow_calls}")
        if w["end_to_end"]["fail_ratio"] > 0:
            bad.append(f"{name}: fail_ratio = {w['end_to_end']['fail_ratio']}")
        if not w.get("trace", {}).get("ok"):
            bad.append(f"{name}: trace.ok is false")
        bad += [f"{name}: {note}" for note in w["notes"] if "traced pass raised" in note]
        ratio = w["per_layer"]["core.strategies.commit_ratio"]
        if ratio is not None and ratio < COMMIT_RATIO_FLOOR[name]:
            bad.append(
                f"{name}: core.strategies.commit_ratio = {ratio:.4f}"
                f" < {COMMIT_RATIO_FLOOR[name]} (fruitless consultations are back)"
            )
        bad += [
            f"{name}: {metric} is null (wrap target renamed?)"
            for metric, value in w["per_layer"].items()
            if value is None
        ]
    return bad


def test_a_scaled_down_traced_run_of_every_workload_is_clean(tmp_path):
    out = tmp_path / "hostbench.json"
    run = subprocess.run(
        [sys.executable, "-m", "hostbench", "run", "--scale", "0.05", "--seconds", "3",
         "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    (tmp_path / "hostbench.txt").write_text(run.stdout + run.stderr)
    print(run.stdout, run.stderr)
    assert run.returncode == 0
    assert record_problems(json.loads(out.read_text())) == []
