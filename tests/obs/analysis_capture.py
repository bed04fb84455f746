"""What ``repro analyze`` and ``repro trace`` say about twelve traced runs.

PR 21 rebuilt the critical-path analysis around one pass over the spans
and made the lifecycle report a view of the attribution.  Neither may
change a digit of any answer, so ``tests/obs/test_critical_path.py``
compares the analysis of every trace target and of four larger runs
against ``tests/obs/data/analysis_parent.json``, which this module
generated **at the parent commit** (it only uses names the parent has)::

    PYTHONPATH=<parent checkout>/src python -m tests.obs.analysis_capture \\
        > tests/obs/data/analysis_parent.json

Regenerate it only from a checkout whose analysis is known to be right,
never to make a failing comparison pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable

from repro import Session, paper_platform
from repro.bench.tracing import TRACE_TARGETS, run_traced
from repro.hardware.topology import rail_optimized_platform
from repro.mpi import collectives
from repro.mpi.comm import Communicator
from repro.obs import lifecycle_report, lifecycle_table
from repro.obs.critical_path import analyze_session, critical_path_trace_events
from tests.core.ask_first_capture import KB, _flood, samples


def eager_flood() -> Session:
    """1 500 messages of 8 B-4 KB, window 32, aggregated."""
    sizes = random.Random(21).choices((8, 64, 512, 2048, 4096), k=1500)
    session = Session(paper_platform(), strategy="aggreg_multirail", trace=True)
    _flood(session, sizes, window=32)
    return session


def greedy_flood() -> Session:
    """300 messages of 64 KB, window 8, greedy balancing."""
    session = Session(paper_platform(), strategy="greedy", trace=True)
    _flood(session, [64 * KB] * 300, window=8)
    return session


def split_flood() -> Session:
    """100 messages of 256 KB, window 8, sampled split ratios."""
    session = Session(
        paper_platform(), strategy="split_balance", samples=samples(), trace=True
    )
    _flood(session, [256 * KB] * 100, window=8)
    return session


def allreduce_p64() -> Session:
    """One 8-element multilane allreduce over 64 ranks."""
    session = Session(rail_optimized_platform(64), strategy="aggreg_multirail", trace=True)
    comm = Communicator(session, name="analysis")
    # ids come from a process-wide counter and end up in every tag: pin
    # it, or the digest depends on test order
    comm.comm_id = 1
    done = []

    def rank_body(rank: int):
        ep = comm.endpoint(rank)
        done.append((yield from collectives.multilane_allreduce(
            ep, [float(rank + i) for i in range(8)]
        )))

    for rank in range(64):
        session.spawn(rank_body(rank), name=f"rank{rank}")
    session.run_until_idle()
    assert len(done) == 64
    return session


SCENARIOS: dict[str, Callable[[], Session]] = {
    **{name: (lambda name=name: run_traced(name)) for name in TRACE_TARGETS},
    "eager_flood": eager_flood,
    "greedy_flood": greedy_flood,
    "split_flood": split_flood,
    "allreduce_p64": allreduce_p64,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(session: Session) -> dict[str, Any]:
    """The three surfaces of one analysed run, as digests plus a count."""
    report = analyze_session(session)
    assert report.verify() == []
    return {
        "requests": len(report.attributions),
        "to_dict": _sha(json.dumps(report.to_dict(), sort_keys=True)),
        "overlay": _sha(
            json.dumps(critical_path_trace_events(report.attributions), sort_keys=True)
        ),
        "lifecycle_node0": _sha(
            lifecycle_table(lifecycle_report(session, node_id=0)).render()
        ),
    }


def capture() -> dict[str, Any]:
    return {name: digests(scenario()) for name, scenario in SCENARIOS.items()}


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1, sort_keys=True))
