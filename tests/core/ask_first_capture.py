"""The three workloads of the ask-before-look tests, and what they count.

PR 20 let the pump skip a consultation, a queue drain and a signal fire
whose outcome it already knows.  Skipping must not change anything a user
can observe, so ``tests/core/test_scheduler.py`` compares every counter,
the health block, the metrics snapshot and — with tracing on — the whole
span stream of these workloads against ``tests/obs/data/ask_first_parent.json``,
which this module generated **at the parent commit** (it only uses names
the parent has)::

    PYTHONPATH=<parent checkout>/src python -m tests.core.ask_first_capture \\
        > tests/obs/data/ask_first_parent.json

Regenerate it only from a commit whose pump is known to be right, never
to make a failing comparison pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from collections import Counter, deque
from typing import Any

from repro import Session, paper_platform, sample_rails
from repro.hardware.topology import rail_optimized_platform
from repro.mpi import collectives
from repro.mpi.comm import Communicator

KB = 1024
TAG = 11


def _flood(session: Session, sizes: list[int], window: int) -> None:
    """Stream ``sizes`` from node 0 to node 1, ``window`` sends in flight."""
    a, b = session.interface(0), session.interface(1)
    recvs = [b.irecv(0, TAG) for _ in sizes]

    def sender():
        outstanding: deque = deque()
        for size in sizes:
            while len(outstanding) >= window:
                oldest = outstanding.popleft()
                if not oldest.done:
                    yield oldest.completion
            outstanding.append(a.isend(1, TAG, size))
        for req in outstanding:
            if not req.done:
                yield req.completion

    session.spawn(sender(), name="flood.sender")
    session.run_until_idle()
    assert all(r.done for r in recvs)


@functools.lru_cache(maxsize=1)
def samples():
    """Init-time sampling of the paper platform (sessions of its own: the
    tests warm it before they start counting calls)."""
    return sample_rails(paper_platform())


def rdv_flood(trace: bool = False, strategy: str = "split_balance") -> Session:
    """200 messages of 64 KB-1 MB, window 8, sampled split ratios."""
    sizes = random.Random(20).choices((64 * KB, 256 * KB, 1024 * KB), k=200)
    session = Session(paper_platform(), strategy=strategy, samples=samples(), trace=trace)
    _flood(session, sizes, window=8)
    return session


def eager_flood(trace: bool = False, strategy: str = "aggreg_multirail") -> Session:
    """2 000 messages of 8 B-4 KB, window 32."""
    sizes = random.Random(20).choices((8, 64, 512, 2048, 4096), k=2000)
    session = Session(paper_platform(), strategy=strategy, trace=trace)
    _flood(session, sizes, window=32)
    return session


def allreduce_p16(trace: bool = False, strategy: str = "aggreg_multirail") -> Session:
    """One 8-element multilane allreduce over 16 ranks."""
    session = Session(rail_optimized_platform(16), strategy=strategy, trace=trace)
    comm = Communicator(session, name="ask_first")
    # ids come from a process-wide counter and end up in every tag, hence
    # in span arguments: pin it, or the digest depends on test order
    comm.comm_id = 1
    results = {}

    def rank_body(rank: int):
        ep = comm.endpoint(rank)
        results[rank] = yield from collectives.multilane_allreduce(
            ep, [float(rank + i) for i in range(8)]
        )

    for rank in range(16):
        session.spawn(rank_body(rank), name=f"rank{rank}")
    session.run_until_idle()
    assert len(results) == 16 and len({tuple(v) for v in results.values()}) == 1
    return session


SCENARIOS = {"rdv_flood": rdv_flood, "eager_flood": eager_flood, "allreduce_p16": allreduce_p16}


def counted(session: Session) -> dict[str, Any]:
    """Everything the session counted, as JSON-ready plain data."""
    return json.loads(json.dumps({
        "sim_us": session.sim.now,
        "events": session.sim.events_executed,
        "driver_polls": [
            [driver.polls for driver in engine.drivers]
            for engine in session.engines.built()
        ],
        "fire_counts": [host.activity.fire_count for host in session.platform.hosts],
        "counters": dict(sorted(session.counters().snapshot().items())),
        "active_health": session.active_health(),
        "metrics": session.metrics.snapshot(),
    }))


def span_digest(session: Session) -> dict[str, Any]:
    """The span stream as a digest plus enough counts to read a mismatch."""
    sha = hashlib.sha256()
    categories: Counter = Counter()
    for span in session.spans:
        args = sorted((span.args or {}).items())
        sha.update(
            repr((span.node, span.track, span.name, span.t0, span.t1, args)).encode()
        )
        categories[span.cat] += 1
    return {"sha256": sha.hexdigest(), "spans": dict(sorted(categories.items()))}


def capture() -> dict[str, Any]:
    from repro.obs.perf import metrics_probe

    out: dict[str, Any] = {"metrics_probe": json.loads(json.dumps(metrics_probe()))}
    for name, scenario in SCENARIOS.items():
        out[name] = {
            "counted": counted(scenario()),
            "traced": span_digest(scenario(trace=True)),
        }
    return out


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1, sort_keys=True))
