"""Three runs whose ``metrics.snapshot()`` must not depend on who resolved
the instruments, or when.

The engines' hot-path instruments and the ones ``sync_kernel_metrics``
publishes into moved from per-engine / per-run look-ups into one
per-session bundle (``obs.metrics.EngineInstruments``).  Same names, same
values, same set: ``tests/obs/test_metrics.py`` compares the snapshots of
these runs against ``tests/obs/data/instruments_parent.json``, which this
module generated **at the parent commit** (PR 21)::

    PYTHONPATH=<parent checkout>/src python -m tests.obs.instruments_capture \\
        > tests/obs/data/instruments_parent.json

Regenerate it only from a commit whose metrics are known to be right.
"""

from __future__ import annotations

import json

from repro.bench.tracing import run_traced
from tests.core.ask_first_capture import allreduce_p16

SCENARIOS = {
    "pingpong_2node": lambda: run_traced("fig6"),
    "faulted": lambda: run_traced("failover"),
    "allreduce_p16": allreduce_p16,
}


def capture() -> dict:
    return {
        name: json.loads(json.dumps(run().metrics.snapshot()))
        for name, run in SCENARIOS.items()
    }


if __name__ == "__main__":
    rows = (
        f" {json.dumps(name)}: {json.dumps(snap, sort_keys=True)}"
        for name, snap in sorted(capture().items())
    )
    print("{\n" + ",\n".join(rows) + "\n}")
