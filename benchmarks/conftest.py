"""Shared fixtures for the figure-reproduction benchmarks.

Each ``bench_*`` file regenerates one figure of the paper (DESIGN.md §4
maps figures to files).  Tables are printed (visible with ``pytest -s``)
and persisted under ``bench_results/`` as text + CSV.

A session-scoped :class:`~repro.obs.perf.BenchRecorder` additionally
collects every figure's curve points (and the ``bench_engine`` /
``bench_scale`` simulated points) into ``bench_results/BENCH_pytest.json``
— the same run-record format ``repro bench run`` emits, so a pytest
benchmark session can be diffed against a baseline with ``repro bench
compare``.  Host time is not recorded here: ``python3 -m hostbench run``
owns wall clock.
"""

from __future__ import annotations

import os

import pytest

from repro import paper_platform, sample_rails
from repro.obs.perf import BenchRecorder


@pytest.fixture(scope="session")
def report_dir() -> str:
    path = os.path.join(os.path.dirname(__file__), "..", "bench_results")
    path = os.path.abspath(path)
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def recorder(report_dir):
    """Run-record accumulator; written once at session end."""
    rec = BenchRecorder("pytest")
    yield rec
    if len(rec):
        rec.write(os.path.join(report_dir, "BENCH_pytest.json"))


@pytest.fixture(scope="session")
def samples():
    """One init-time sampling shared by every benchmark (like NewMadeleine
    samples once at start-up)."""
    return sample_rails(paper_platform())


@pytest.fixture(scope="session")
def bench_jobs() -> int:
    """Worker processes per figure sweep (``REPRO_BENCH_JOBS``, default 1).

    Simulated results are bit-identical for any value.  CI's ``test`` job
    runs this directory serially (``--benchmark-disable``) for its shape
    and mechanism assertions; the record it writes is not gated — the
    gated records are the ones ``repro bench run`` writes in the
    ``bench-regression`` job."""
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))
