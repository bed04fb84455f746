#!/usr/bin/env python3
"""A 1-D stencil halo exchange on a 4-node ring — the kind of workload
the paper's introduction motivates multi-rail clusters with.

Every node owns a block of a 1-D domain and iterates a 3-point stencil;
each step it exchanges *halo* cells with both ring neighbours using the
mini-MPI layer, then an allreduce computes the global residual.  Halos are
small (latency-bound, served by Quadrics with aggregation) while an
occasional "checkpoint" ships the whole block (bandwidth-bound, stripped
across both rails by the final strategy) — one application exercising both
regimes of the paper's final strategy.

Run:  python examples/halo_exchange.py
"""

import numpy as np

from repro import Session, paper_platform, sample_rails
from repro.mpi import Communicator, allreduce
from repro.sim.process import AllOf
from repro.obs.timeline import rail_usage_table

N_NODES = 4
BLOCK = 16384  # cells per node (one float64 each)
STEPS = 5
TAG_LEFT, TAG_RIGHT, TAG_CKPT = 1, 2, 3


def main() -> None:
    plat = paper_platform(n_nodes=N_NODES)
    samples = sample_rails(plat)
    session = Session(plat, strategy="split_balance", samples=samples)
    comm = Communicator(session)
    report: dict[int, list[str]] = {r: [] for r in range(N_NODES)}

    def worker(rank: int):
        ep = comm.endpoint(rank)
        left, right = (rank - 1) % N_NODES, (rank + 1) % N_NODES
        rng = np.random.default_rng(seed=rank)
        block = rng.random(BLOCK)
        for step in range(STEPS):
            # exchange halo cells with both neighbours (8 B each way)
            sends = [
                ep.isend(block[:1].tobytes(), left, TAG_LEFT),
                ep.isend(block[-1:].tobytes(), right, TAG_RIGHT),
            ]
            recvs = [ep.irecv(left, TAG_RIGHT), ep.irecv(right, TAG_LEFT)]
            yield AllOf([r.completion for r in recvs] + [s.completion for s in sends])
            halo_l = np.frombuffer(recvs[0].data, dtype=np.float64)[0]
            halo_r = np.frombuffer(recvs[1].data, dtype=np.float64)[0]
            # 3-point stencil update
            padded = np.concatenate(([halo_l], block, [halo_r]))
            new = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
            residual = float(np.abs(new - block).sum())
            block = new
            total = yield from allreduce(ep, residual)
            report[rank].append(f"step {step}: global residual {total:10.4f}")
        # checkpoint: ship the whole block to the next node (bandwidth-bound)
        ck_send = ep.isend(block.tobytes(), right, TAG_CKPT)
        ck_recv = ep.irecv(left, TAG_CKPT)
        yield AllOf([ck_send.completion, ck_recv.completion])
        neighbour_block = np.frombuffer(ck_recv.data, dtype=np.float64)
        report[rank].append(
            f"checkpoint: received {neighbour_block.nbytes} B from node {left},"
            f" mean={neighbour_block.mean():.4f}"
        )
        return None

    procs = [session.spawn(worker(r), name=f"rank{r}") for r in range(N_NODES)]
    session.run_until_idle()
    assert all(p.done for p in procs), "halo exchange deadlocked"

    for line in report[0]:
        print("rank0 " + line)
    print(f"\nsimulated time: {session.sim.now:.1f}us")
    print()
    print(rail_usage_table(session))


if __name__ == "__main__":
    main()
