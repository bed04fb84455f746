"""Seven fixed runs and everything they count, on every event core.

The counter bag (``Session.counters()``), the active-set health block
(``Session.active_health()``) and the metrics snapshot are what a user
reads of a run's accounting.  The bag's ``sweeps``, ``polls``,
``packets_committed`` and ``segments_submitted`` are derived when it is
read from the driver tallies and the send channels, which hold the same
facts; ``tests/obs/test_counter_law.py`` compares these runs, byte for
byte, against ``tests/obs/data/counters_parent.json``, which this module
generated **at the parent commit**, where the pump still incremented all
four (it only uses names the parent has)::

    PYTHONPATH=<parent checkout>/src python -m tests.obs.counters_capture \\
        > tests/obs/data/counters_parent.json

Regenerate it only from a commit whose counting is known to be right,
never to make a failing comparison pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable

from repro import Session, paper_platform, run_pingpong
from repro.faults.plan import FaultEvent, FaultPlan
from repro.hardware.topology import rail_optimized_platform
from repro.mpi import collectives
from repro.mpi.comm import Communicator
from repro.sim.backend import available_backends
from tests.core.ask_first_capture import _flood, samples

KB = 1024
EAGER_SIZES = (8, 64, 512, 2048, 4096)
RDV_SIZES = (64 * KB, 256 * KB, 1024 * KB)


def eager_flood(backend: str, **session_kw) -> Session:
    """1 000 messages of 8 B-4 KB, window 32, ``aggreg_multirail``."""
    spec = session_kw.pop("spec", None) or paper_platform()
    session = Session(spec, strategy="aggreg_multirail", backend=backend, **session_kw)
    _flood(session, random.Random(44).choices(EAGER_SIZES, k=1000), window=32)
    return session


def rdv_flood(backend: str) -> Session:
    """100 messages of 64 KB-1 MB, window 8, ``split_balance`` sampled."""
    session = Session(
        paper_platform(), strategy="split_balance", samples=samples(), backend=backend
    )
    _flood(session, random.Random(44).choices(RDV_SIZES, k=100), window=8)
    return session


def figure_point(backend: str) -> Session:
    """One figure point: a fresh 2-node session, a 64 KB two-segment
    ping-pong."""
    session = Session(paper_platform(), strategy="aggreg_multirail", backend=backend)
    run_pingpong(session, 64 * KB, segments=2, reps=3, warmup=1)
    return session


def collectives_p64(backend: str) -> Session:
    """hostbench's ``collectives_p1024`` pass at P=64: 8 multilane
    allreduces, a multilane barrier and a NIC barrier per rank."""
    n = 64
    session = Session(rail_optimized_platform(n), strategy="aggreg_multirail", backend=backend)
    comm = Communicator(session, name="counters")
    comm.comm_id = 1  # a process-wide counter otherwise: pin the tags
    rng = random.Random(44)
    bases = [[float(rng.randrange(1000)) for _ in range(8)] for _ in range(8)]

    def rank_body(rank: int):
        ep = comm.endpoint(rank)
        for base in bases:
            yield from collectives.multilane_allreduce(ep, [v + rank for v in base])
        yield from collectives.multilane_barrier(ep)
        yield from collectives.nic_barrier(ep)

    procs = [session.spawn(rank_body(r), name=f"rank{r}") for r in range(n)]
    session.run_until_idle()
    assert all(p.done for p in procs)
    return session


def rail_down(backend: str) -> Session:
    """A mixed eager/bulk flood that loses the Myri-10G rail for good
    mid-run: wrappers and chunks are lost and re-sent on QsNet."""
    spec = paper_platform()
    plan = FaultPlan([FaultEvent("down", 300.0, spec.rails[0].name, duration_us=1e9)])
    session = Session(
        spec, strategy="split_balance", samples=samples(), faults=plan, backend=backend
    )
    sizes = random.Random(44).choices((8, 512, 4096, 64 * KB, 256 * KB), k=200)
    _flood(session, sizes, window=8)
    return session


def pio_workers(backend: str) -> Session:
    """The eager flood with one parallel-PIO worker per host."""
    spec = paper_platform()
    spec = spec.replace(host=spec.host.replace(pio_workers=1))
    return eager_flood(backend, spec=spec)


def traced(backend: str) -> Session:
    """The eager flood with span tracing on."""
    return eager_flood(backend, trace=True)


SCENARIOS: dict[str, Callable[[str], Session]] = {
    "eager_flood": eager_flood,
    "rdv_flood": rdv_flood,
    "figure_point": figure_point,
    "collectives_p64": collectives_p64,
    "rail_down": rail_down,
    "pio_workers": pio_workers,
    "traced": traced,
}


def counted(session: Session) -> dict[str, Any]:
    """What the session counted, as JSON-ready plain data: the merged bag,
    a digest of every built engine's own bag, the health block and the
    metrics snapshot."""
    engines = json.dumps(
        [sorted(session.counters(e.node_id).snapshot().items())
         for e in session.engines.built()]
    )
    return json.loads(json.dumps({
        "sim_us": session.sim.now,
        "events": session.sim.events_executed,
        "counters": dict(sorted(session.counters().snapshot().items())),
        "engine_counters_sha256": hashlib.sha256(engines.encode()).hexdigest(),
        "active_health": session.active_health(),
        "metrics": session.metrics.snapshot(),
    }))


def capture() -> dict[str, Any]:
    return {
        backend: {name: counted(run(backend)) for name, run in SCENARIOS.items()}
        for backend in available_backends()
    }


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1, sort_keys=True))
