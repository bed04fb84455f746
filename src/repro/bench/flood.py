"""Unidirectional streaming ("flood") workload.

The ping-pong of §3.1 measures request latency round by round; a flood
measures sustained throughput with many requests outstanding — the regime
where the engine's optimization window actually fills up ("the
communication support accumulates packets while the NIC is busy", §2).
With a window of non-blocking sends in flight, aggregation and multi-rail
balancing act on real backlogs instead of the 2-4 segments a ping-pong
produces.

``run_flood`` posts ``count`` messages of ``size`` bytes from node A with
at most ``window`` uncompleted sends at any time; node B pre-posts all
receives.  Reported throughput covers first-submit to last-delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim.process import AnyOf, spawn
from ..util.errors import BenchError
from ..util.units import bandwidth_MBps

if TYPE_CHECKING:  # pragma: no cover
    from ..core.session import Session

__all__ = ["FloodResult", "run_flood"]

FLOOD_TAG = 11


@dataclass(frozen=True)
class FloodResult:
    """Outcome of one streaming run."""

    message_size: int
    count: int
    window: int
    elapsed_us: float

    @property
    def total_bytes(self) -> int:
        return self.message_size * self.count

    @property
    def throughput_MBps(self) -> float:
        return bandwidth_MBps(self.total_bytes, self.elapsed_us)

    @property
    def message_rate_per_ms(self) -> float:
        return self.count / (self.elapsed_us / 1000.0)


def run_flood(
    session: "Session",
    size: int,
    count: int = 64,
    window: int = 8,
) -> FloodResult:
    """Stream ``count`` messages of ``size`` bytes from node 0 to node 1."""
    if count < 1 or window < 1:
        raise BenchError(f"bad count/window: {count}/{window}")
    if size < 0:
        raise BenchError(f"negative size {size}")
    iface_a = session.interface(0)
    iface_b = session.interface(1)
    sim = session.sim
    timing: dict[str, float] = {}

    recvs = [iface_b.irecv(0, FLOOD_TAG) for _ in range(count)]

    def sender():
        timing["t0"] = sim.now
        in_flight: list = []
        for _ in range(count):
            while len(in_flight) >= window:
                idx, _v = yield AnyOf([r.completion for r in in_flight])
                in_flight = [r for r in in_flight if not r.done]
            in_flight.append(iface_a.isend(1, FLOOD_TAG, size))
        while in_flight:
            yield AnyOf([r.completion for r in in_flight])
            in_flight = [r for r in in_flight if not r.done]
        return None

    def drain():
        for req in recvs:
            yield req.completion
        timing["t1"] = sim.now
        return None

    send_proc = spawn(sim, sender(), name="flood.sender")
    drain_proc = spawn(sim, drain(), name="flood.drain")
    session.run_until_idle()
    if not (send_proc.done and drain_proc.done):
        raise BenchError(
            f"flood stalled: sender done={send_proc.done},"
            f" receiver done={drain_proc.done} at t={sim.now:.2f}us"
        )
    elapsed = timing["t1"] - timing["t0"]
    if elapsed <= 0:
        raise BenchError("flood measured non-positive elapsed time")
    return FloodResult(message_size=size, count=count, window=window, elapsed_us=elapsed)
