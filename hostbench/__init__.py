"""hostbench — the repo's host-time benchmark, measured from outside.

Four long workloads drive the simulator through its public functions only;
nothing under ``src/`` knows this package exists.  See ``README.md`` here
for the metric and workload definitions and ``BENCHMARK.json`` at the
repository root for the contract the driver checks.
"""

from __future__ import annotations

from pathlib import Path

#: the checkout this package sits in; ``src/`` holds the program under test.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
