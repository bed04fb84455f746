"""The paper's benchmark: a multi-segment non-blocking ping-pong (§3.1).

"The benchmark is a regular ping-pong program where the send (resp. recv)
sequence is a serie of non-blocking send (resp. non-blocking recv)
operations.  We compare the transfer of regular messages (composed of a
single contiguous memory segment) with the transfer of messages composed
of multiple segments of the same size."

The reported *total data size* is the accumulated size of all segments,
exactly like the figures' x axes; latency is one-way time (RTT/2),
bandwidth is ``total_size / one_way``.

The simulation is deterministic, so a handful of repetitions (after
warm-up rounds that populate connection state) is enough; repetitions
still matter because strategy state (e.g. which NIC was grabbed first)
can alternate between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

from ..sim.process import AllOf, Timeout, spawn
from ..util.errors import BenchError
from ..util.units import bandwidth_MBps

if TYPE_CHECKING:  # pragma: no cover
    from ..core.session import Session

__all__ = ["PingPongResult", "run_pingpong", "split_even"]

#: tag used by the benchmark's logical channel.
BENCH_TAG = 7


@dataclass(frozen=True)
class PingPongResult:
    """One measured point of a ping-pong sweep."""

    total_size: int
    segments: int
    reps: int
    one_way_us: float

    @property
    def bandwidth_MBps(self) -> float:
        return bandwidth_MBps(self.total_size, self.one_way_us)


def split_even(total: int, parts: int) -> list[int]:
    """Split ``total`` bytes into ``parts`` near-equal segment sizes.

    The paper uses segments "of the same size"; when the total is not
    divisible the remainder goes to the first segments (every segment
    stays within one byte of the others).

    >>> split_even(10, 4)
    [3, 3, 2, 2]
    """
    if parts < 1:
        raise BenchError(f"need >= 1 segment, got {parts}")
    if total < parts:
        raise BenchError(f"cannot split {total} bytes into {parts} non-empty segments")
    base, rem = divmod(total, parts)
    return [base + 1 if i < rem else base for i in range(parts)]


def run_pingpong(
    session: "Session",
    size: int,
    segments: int = 1,
    reps: int = 5,
    warmup: int = 2,
    tag: int = BENCH_TAG,
    payload_factory: Optional[Callable[[int], Union[bytes, int]]] = None,
    node_a: int = 0,
    node_b: int = 1,
    inter_segment_gap_us: float = 0.0,
) -> PingPongResult:
    """Run a ping-pong of ``size`` total bytes in ``segments`` pieces.

    ``payload_factory(seg_size)`` produces each segment's payload; the
    default is a virtual (size-only) payload, which is what the benchmark
    sweeps use.  Integration tests pass real bytes to also verify
    integrity end to end.

    ``inter_segment_gap_us`` inserts idle time between consecutive
    non-blocking sends — used by the optimization-window ablation: with a
    gap, each segment has usually left before the next is submitted, so
    opportunistic aggregation finds an empty backlog.

    The session must be freshly built or previously drained; the function
    runs the simulator until both benchmark processes finish.
    """
    if reps < 1 or warmup < 0:
        raise BenchError(f"bad reps/warmup: {reps}/{warmup}")
    if inter_segment_gap_us < 0:
        raise BenchError(f"negative inter-segment gap {inter_segment_gap_us}")
    seg_sizes = split_even(size, segments)
    make_payload = payload_factory or (lambda n: n)
    iface_a = session.interface(node_a)
    iface_b = session.interface(node_b)
    sim = session.sim
    timing: dict[str, float] = {}

    def submit_all(iface, peer):
        sends = []
        for k, s in enumerate(seg_sizes):
            if inter_segment_gap_us > 0 and k > 0:
                yield Timeout(inter_segment_gap_us)
            sends.append(iface.isend(peer, tag, make_payload(s)))
        return sends

    def ping() -> object:
        for i in range(warmup + reps):
            if i == warmup:
                timing["t0"] = sim.now
            sends = yield from submit_all(iface_a, node_b)
            recvs = [iface_a.irecv(node_b, tag) for _ in seg_sizes]
            yield AllOf(recvs + sends)
        timing["t1"] = sim.now
        return None

    def pong() -> object:
        for _ in range(warmup + reps):
            recvs = [iface_b.irecv(node_a, tag) for _ in seg_sizes]
            yield AllOf(recvs)
            sends = yield from submit_all(iface_b, node_a)
            yield AllOf(sends)
        return None

    ping_proc = spawn(sim, ping(), name="pingpong.ping")
    pong_proc = spawn(sim, pong(), name="pingpong.pong")
    session.run_until_idle()
    if not (ping_proc.done and pong_proc.done):
        raise BenchError(
            f"ping-pong deadlocked: ping done={ping_proc.done},"
            f" pong done={pong_proc.done} at t={sim.now:.2f}us"
        )
    elapsed = timing["t1"] - timing["t0"]
    if elapsed <= 0:
        raise BenchError("ping-pong measured non-positive elapsed time")
    one_way = elapsed / (2.0 * reps)
    return PingPongResult(total_size=size, segments=segments, reps=reps, one_way_us=one_way)
