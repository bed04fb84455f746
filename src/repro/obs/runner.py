"""The one fan-out: ``ordered_map`` over worker processes, in task order.

Every unit of work the harness runs — a figure point, an engine point, a
scaling cell, an adaptive cell, a chaos case — is an isolated
:class:`~repro.sim.engine.Simulator`: no state crosses units, so a list
of them is embarrassingly parallel.  What crosses the process boundary is
*names, not closures*: a task is a picklable descriptor (figure id + curve
label + size; algorithm + node count; strategy + seed), the worker body
is a module-level function that rebuilds the platform and session
locally, and the row that comes back is a dict of primitives.

Determinism contract (tested in ``tests/obs/test_runner.py`` and gated
in CI): a run over ``n`` workers is **bit-identical** to a serial one —

* each unit runs on a fresh simulator whose event order depends only on
  insertion order (never ``id()``-hash order; see
  :mod:`repro.sim.engine` and :mod:`repro.sim.flows`), so its numbers
  are the same in any process;
* rebuilding from a descriptor is deterministic (default inputs only —
  a figure plan holding caller-supplied samples stays in the caller's
  process);
* results come back in task order, and the merge is a plain ordered
  insert, so record layout matches too.

Workers default to the ``fork`` start method where available (cheap, no
re-import); override with ``REPRO_MP_START=spawn|forkserver|fork``.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Optional, Sequence

from ..util.errors import BenchError

__all__ = ["resolve_jobs", "ordered_map"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``→1 serial, ``0``→all cores."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise BenchError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _mp_context():
    # imported where a pool is made: a serial run never loads it
    import multiprocessing

    method = os.environ.get("REPRO_MP_START")
    if method:
        try:
            return multiprocessing.get_context(method)
        except ValueError as exc:
            raise BenchError(f"bad REPRO_MP_START={method!r}: {exc}") from exc
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def ordered_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    n_procs: int,
    on_result: Optional[Callable[[Any, Any], None]] = None,
) -> list:
    """``[fn(t) for t in tasks]``, serially or over ``n_procs`` workers.

    The one fan-out of the repo (figure sweeps, the bench suites, the
    chaos grid).  ``on_result(task, result)`` fires in the parent as
    each result lands, **in task order** either way, so a live publisher
    can stream progress and the merged list is the same with or without
    workers.  ``chunksize=1``: tasks differ in cost by orders of
    magnitude (4 B vs 8 MB points, P=16 vs P=1024 cells), so
    fine-grained dealing keeps the pool balanced; ``imap`` (not ``map``)
    so results stream back while later tasks still run.
    """
    results = []
    with contextlib.ExitStack() as stack:
        if n_procs <= 1:
            landed = map(fn, tasks)
        else:
            pool = stack.enter_context(_mp_context().Pool(processes=n_procs))
            landed = pool.imap(fn, tasks, chunksize=1)
        for task, result in zip(tasks, landed):
            results.append(result)
            if on_result is not None:
                on_result(task, result)
    return results
