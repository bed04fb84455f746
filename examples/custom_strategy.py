#!/usr/bin/env python3
"""Write your own optimizing scheduler — the extension point the paper
is about.

NewMadeleine's middle layer "is made of interchangeable modules, each
implementing an optimizing scheduler" (§2).  This tutorial implements a
new strategy from scratch — a *round-robin* balancer that cycles rails
per segment regardless of their speed — registers it, validates it with
the contract checker, and races it against the paper's strategies.

Round-robin looks plausible ("use all the rails!") but loses to the
sampled hetero-split everywhere and even to greedy at large sizes: it
gives the slow rail exactly half the bytes.  Which is the paper's point:
the scheduling *policy* is where the performance lives.  Everything else
is the base class's: ``commit_ctrl`` sends queued handshakes,
``append_segment`` embeds an eager segment in a wrapper the driver made,
``commit_rdv`` starts a rendezvous over a chunk plan, and the engine
counts what was committed — a strategy keeps no statistics of its own.

Run:  python examples/custom_strategy.py
"""

from collections import deque

from repro import Session, paper_platform, run_pingpong, sample_rails
from repro.core.strategies import CheckedStrategy, Strategy, register_strategy
from repro.util.tables import Table
from repro.util.units import KB, MB, format_size


class RoundRobinStrategy(Strategy):
    """Cycle through the rails, one whole segment each."""

    name = "round_robin"

    def __init__(self):
        super().__init__()
        self._queue = deque()
        self._next_rail = 0

    def pack(self, engine, request):
        # a segment is the send request its isend returned: peer, tag,
        # seq and payload, queued as it is
        self._queue.append(request)

    def try_and_commit(self, engine, driver):
        pw = self.commit_ctrl(engine, driver)
        if pw is not None:
            return pw
        # strict rotation: only the rail whose turn it is may take work
        if not self._queue or driver.rail_index != self._next_rail:
            return None
        request = self._queue[0]
        size = request.payload.size
        if driver.eager_eligible(size):
            self._queue.popleft()
            pw = driver.new_wrapper(request.peer)
            self.append_segment(pw, request)
        elif driver.dma_idle:
            self._queue.popleft()
            pw = self.commit_rdv(engine, driver, request, [(driver.rail_index, 0, size)])
        else:
            return None
        self._next_rail = (self._next_rail + 1) % engine.platform.n_rails
        return pw

    @property
    def backlog(self):
        return len(self._queue)


def main() -> None:
    register_strategy("round_robin", RoundRobinStrategy, overwrite=True)
    plat = paper_platform()
    samples = sample_rails(plat)

    # 1. validate the new strategy against the engine contract
    session = Session(plat, strategy=CheckedStrategy.wrapping("round_robin"))
    run_pingpong(session, 1 * MB, segments=4, reps=2)
    for engine in session.engines:
        engine.strategy.assert_drained()
    print("contract checker: round_robin is a well-behaved strategy\n")

    # 2. race it on single-segment messages — the regime where the
    # policies truly differ (multi-segment messages get balanced by any
    # of them; a single segment must be *stripped* to use both rails)
    contenders = ["round_robin", "greedy", "split_balance"]
    sizes = [4 * KB, 64 * KB, 1 * MB, 8 * MB]
    table = Table(
        ["strategy"] + [f"{format_size(s)} MB/s" for s in sizes],
        title="Round-robin vs the paper's strategies (single-segment bandwidth)",
    )
    for name in contenders:
        row = [name]
        for size in sizes:
            kw = {"samples": samples} if name == "split_balance" else {}
            res = run_pingpong(Session(plat, strategy=name, **kw), size, segments=1, reps=2)
            row.append(res.bandwidth_MBps)
        table.add_row(*row)
    print(table)
    print(
        "\nround-robin alternates whole messages across rails (averaging"
        "\ntheir speeds), greedy pins each to one rail — only the sampled"
        "\nadaptive split uses both rails for one message. That gap is §3.4."
    )


if __name__ == "__main__":
    main()
