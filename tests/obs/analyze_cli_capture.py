"""What ``repro analyze T --json`` prints for every trace target.

The CLI's analysis of a traced run must not change with how its spans
reach the analysis: kept in memory, or sampled and written to a
``--stream`` file.  ``tests/obs/test_critical_path.py`` runs the 32 cases
below through :func:`repro.cli.main` and compares the SHA-256 and length
of each stdout against ``tests/obs/data/analyze_cli_parent.json``, which
this module generated **at the parent commit** (every flag it passes
exists there too)::

    PYTHONPATH=<parent checkout>/src python -m tests.obs.analyze_cli_capture \\
        > tests/obs/data/analyze_cli_parent.json

Regenerate it only from a checkout whose analysis is known to be right,
never to make a failing comparison pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

from repro.bench.tracing import TRACE_TARGETS
from repro.cli import main

#: case suffix -> the flags it adds to ``analyze T --json``; ``STREAM``
#: is replaced by a fresh file path.
CASES: dict[str, tuple[str, ...]] = {
    "memory": (),
    "stream": ("--stream", "STREAM"),
    "rate": ("--stream", "STREAM", "--sample-rate", "0.3", "--sample-seed", "5"),
    "head": ("--stream", "STREAM", "--sample-head", "60"),
}


def analyze_stdout(target: str, case: str, tmpdir: str) -> str:
    """stdout of ``repro analyze TARGET --json`` with CASE's flags."""
    path = os.path.join(tmpdir, f"{target}-{case}.jsonl")
    argv = ["analyze", target, "--json"]
    argv += [path if flag == "STREAM" else flag for flag in CASES[case]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def digest(text: str) -> dict[str, object]:
    data = text.encode()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def capture() -> dict[str, dict[str, object]]:
    with tempfile.TemporaryDirectory() as tmpdir:
        return {
            f"{target}/{case}": digest(analyze_stdout(target, case, tmpdir))
            for target in sorted(TRACE_TARGETS)
            for case in CASES
        }


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1, sort_keys=True))
