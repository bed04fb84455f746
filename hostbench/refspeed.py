"""The box's speed, sampled while a pass runs.

This sandbox executes identical Python work at speeds that drift by
+-10 % over minutes (measured: five-pass medians of one workload spread
7-15 % between runs, and a fixed reference kernel drifts with them).
Wall-clock throughput therefore cannot be compared between two runs
tighter than that, whatever the number of passes.

So every timed pass carries a pace car: an interval timer interrupts the
pass every :data:`INTERVAL_S` and times a slice of a fixed,
allocation-heavy pure-Python kernel (:func:`reference_slice` — objects,
dicts, a heap, a deque, a generator, closures: the instruction mix of the
simulator, none of its code).  Each sample says how fast the box was at
that moment, ``NOMINAL_SLICE_S / slice time``; the samples are uniform in
wall time, so their mean is the share of the pass's wall time a box at
nominal speed would have needed (a slow spell is sampled as often as it is
long).  The time spent in slices is taken out of the pass's wall time, and
``ops_per_s`` is reported at nominal speed: ``ops / (net time x speed)``.
In the same experiments that cut the spread between five-pass runs from
7-15 % to about 2 %; the raw rate is printed beside it as
``ops_per_wall_s``.

The kernel and the nominal slice time are part of the metric's
definition: changing either rebases every ``ops_per_s`` ever recorded.
"""

from __future__ import annotations

import gc
import heapq
import signal
from collections import deque
from statistics import mean
from time import perf_counter

__all__ = ["SpeedSampler", "reference_slice", "NOMINAL_SLICE_S", "INTERVAL_S"]

#: one timed slice on this box when it is quiet (a unit conversion, nothing
#: more: it makes the normalised rate read as plain operations per second).
NOMINAL_SLICE_S = 0.00115
#: timer period; a sample is two slices (~2.5 ms), about 6 % of a pass.
INTERVAL_S = 0.04


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float):
        self.a = a
        self.b = b

    def step(self, x: float) -> float:
        self.a += x
        return self.a


def _counter():
    x = i = 0
    while True:
        i += 1
        x = yield x + i


def reference_slice(n: int = 1000) -> float:
    """The fixed kernel.  Do not edit: see the module docstring."""
    heap: list = []
    table: dict = {}
    queue: deque = deque()
    gen = _counter()
    next(gen)
    acc = 0.0
    for i in range(n):
        cell = _Cell(i, float(i))
        table[i & 1023] = cell
        queue.append(cell)
        heapq.heappush(heap, (float((i * 7919) % 1000), i))
        if i & 1:
            heapq.heappop(heap)
            queue.popleft()
        acc += cell.step(1.5)
        acc += gen.send(i)
        acc += (lambda v, c=cell: c.b + v)(2.0)
    return acc


class SpeedSampler:
    """``with SpeedSampler() as sampler: <pass>`` — then :attr:`speed` and
    :attr:`spent_s`.  Main thread only (it owns ``SIGALRM`` meanwhile)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: seconds between enter and exit that were ours, not the pass's.
        self.spent_s = 0.0

    def _sample(self, _signum=None, _frame=None) -> None:
        # The slice allocates; a collection it triggered would scan the
        # *pass's* heap (100k live requests in a flood) and read as a slow
        # box.  Collection is the pass's business: keep it out of the slice.
        collecting = gc.isenabled()
        gc.disable()
        # The pass runs warm; a slice that starts with the caches the pass
        # left reads a contended box as slower than the pass finds it
        # (measured: cold samples swing 26 %, warm ones 19 %, for the same
        # passes).  So one slice warms up and the next is timed.
        began = perf_counter()
        reference_slice()
        t0 = perf_counter()
        reference_slice()
        now = perf_counter()
        self.samples.append(now - t0)
        self.spent_s += now - began
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one timer period
            self._sample()

    @property
    def speed(self) -> float:
        """The box's speed over the pass, as a share of nominal."""
        return mean(NOMINAL_SLICE_S / s for s in self.samples)
