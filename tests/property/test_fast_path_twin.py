"""Twin law: the pump's fast paths and their reference agree, bit for bit.

The pump takes shortcuts only where their answer is known: untraced and
unfaulted with no PIO worker it skips a commit phase with nothing
askable (``lean``), it skips a strategy whose ``quiet`` / ``dma_bound``
flag says its answer is ``None``, and it counts an empty poll without
entering ``Driver.poll``; the native core resumes a process in C.  Each
shortcut has a general twin that is already in the code:

* **fast** — the native core (heap where it does not load), untraced,
  with the strategy as registered;
* **reference** — the heap core, traced (which turns ``lean`` off and
  records every decision), with the strategy wrapped in
  :class:`~repro.core.strategies.checker.CheckedStrategy`, which consults
  the inner strategy on every sweep whatever its flags say and reports a
  flag that hid work.

Hypothesis draws a platform, a strategy, a PIO worker count, a size mix
across the eager threshold and the split sizes, a window, one-way or
bidirectional traffic and an optional fault plan; both runs must agree on
the clock, the event count, every request's completion time, the
engine counters, the driver tallies and the metrics snapshot, and the
checker must find nothing.
"""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.session import Session
from repro.core.strategies.registry import available_strategies
from repro.core.strategies.checker import CheckedStrategy
from repro.faults.plan import random_plan
from repro.hardware.presets import paper_platform
from repro.hardware.topology import rail_optimized_platform
from repro.sim.backend import available_backends

FAST = "native" if "native" in available_backends() else "heap"
TAG = 3
KB = 1024
#: below every preset's eager threshold, around the smallest ones, and
#: rendezvous sizes up to ones every multi-rail strategy splits
SIZES = (4, 512, 4 * KB, 10 * KB, 17 * KB, 64 * KB, 300 * KB, 1024 * KB)
PINNED = ("single_rail", "aggreg")


def _platform(kind, n_nodes, rail, pio_workers):
    if kind == "pair":
        spec = paper_platform()
    elif kind == "one":
        spec = paper_platform()
        spec = spec.single_rail(spec.rails[rail % spec.n_rails].name)
    else:
        spec = rail_optimized_platform(n_nodes, group=2)
    return spec.replace(host=spec.host.replace(pio_workers=pio_workers))


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(("pair", "one", "rail_opt")))
    n_nodes = draw(st.sampled_from((2, 4, 8))) if kind == "rail_opt" else 2
    rail = draw(st.integers(0, 1))
    spec = _platform(kind, n_nodes, rail, draw(st.integers(0, 1)))
    name = draw(st.sampled_from(available_strategies()))
    opts = {"rail": rail % spec.n_rails} if name in PINNED and draw(st.booleans()) else {}
    sizes = draw(st.lists(st.sampled_from(SIZES), min_size=1, max_size=12))
    window = draw(st.integers(1, 4))
    both_ways = draw(st.booleans())
    plan = None
    if draw(st.booleans()):
        plan = random_plan(draw(st.integers(0, 2**16)), spec, horizon_us=3000.0)
    return spec, name, opts, sizes, window, both_ways, plan


def _sender(iface, peer, sizes, window, log):
    pending = deque()
    for size in sizes:
        if len(pending) >= window:
            yield pending.popleft()
        request = iface.isend(peer, TAG, size)
        log.append(request)
        pending.append(request)


def _receiver(iface, peer, count, window, log):
    pending = deque()
    for _ in range(count):
        if len(pending) >= window:
            yield pending.popleft()
        request = iface.irecv(peer, TAG)
        log.append(request)
        pending.append(request)


def run(scenario, reference):
    """One scenario on one side; returns everything the sides must share,
    and the checker's violations (reference side only)."""
    spec, name, opts, sizes, window, both_ways, plan = scenario
    if reference:
        strategy = CheckedStrategy.wrapping(name, record_only=True, **opts)
        session = Session(spec, strategy=strategy, trace=True, faults=plan, backend="heap")
    else:
        session = Session(spec, strategy=name, strategy_opts=opts, faults=plan, backend=FAST)
    last = spec.n_nodes - 1
    requests = []
    for src, dst in ((0, last), (last, 0))[: 2 if both_ways else 1]:
        session.spawn(_sender(session.interface(src), dst, sizes, window, requests))
        session.spawn(_receiver(session.interface(dst), src, len(sizes), window, requests))
    session.run_until_idle()
    violations = []
    if reference:
        for engine in session.engines.built():
            engine.strategy.check_drained()
            violations += [str(v) for v in engine.strategy.violations]
    engines = session.engines.built()
    observed = {
        "now": repr(session.sim.now),
        "events": session.sim.events_executed,
        "completions": [repr(r.completed_at) for r in requests],
        "counters": dict(session.counters().counts),
        "drivers": [
            (d.polls, d.eager_posted, d.eager_bytes, d.dma_started, d.dma_bytes)
            for engine in engines
            for d in engine.drivers
        ],
        "metrics": session.metrics.snapshot(),
    }
    return observed, violations


#: a bidirectional rendezvous exchange: both DMA engines of a node are
#: taken while an ACK for the peer's request waits in the control queue
EXCHANGE = (paper_platform(), "split_balance", {}, [1024 * KB] * 12, 4, True, None)


@given(scenarios())
@example(EXCHANGE)
@settings(max_examples=100, deadline=None)
def test_the_fast_paths_agree_with_their_reference(scenario):
    fast, _ = run(scenario, reference=False)
    reference, violations = run(scenario, reference=True)
    assert violations == []
    assert "None" not in fast["completions"]  # every request completed
    assert fast == reference
