"""Python calls counted under ``sys.setprofile``, by layer or by any key.

Every ``call`` event (a Python frame entered or a generator resumed) is
charged to ``key(code)`` of the frame's code object; C calls are not
events.  The default key is the frame's *layer*: the repo's stack from
the event core up, in DESIGN's layer order (hostbench's ``LAYERS``)::

    PYTHONPATH=src python -m tests.callcount

prints calls per message by layer for the eager and rendezvous floods of
``tests/integration/test_message_cost.py`` on every core.
"""

from __future__ import annotations

import collections
import functools
import gc
import os
import sys
from typing import Any, Callable, Hashable

import repro

#: the library's layers, bottom up; a module belongs to the first layer
#: its dotted name (below ``repro.``) equals or starts with
LAYERS = (
    "sim.engine",
    "sim.process",
    "sim.flows",
    "hardware",
    "drivers",
    "core.session",
    "core.scheduler",
    "core.strategies",
    "core.matching",
    "core.rendezvous",
    "api",
    "mpi",
)
#: a library module outside every layer (requests, packets, obs, util, …)
OTHER = "other"
#: a frame that is not the library's (the caller's generators, stdlib)
OUTSIDE = "outside"

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@functools.lru_cache(maxsize=None)
def _layer_of_file(filename: str) -> str:
    if not filename.startswith(_PACKAGE):
        return OUTSIDE
    module = filename[len(_PACKAGE) : -len(".py")].replace(os.sep, ".")
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            return layer
    return OTHER


def layer(code) -> str:
    """The layer of a code object's module."""
    return _layer_of_file(code.co_filename)


def count_calls(
    run: Callable[[], Any], key: Callable[[Any], Hashable] = layer
) -> tuple[collections.Counter, Any]:
    """``(calls by key(code), run())``: every ``call`` event while ``run()``
    runs, charged to the key of its frame's code object.  Earlier cyclic
    garbage is collected first: a pump generator of an earlier session,
    closed when the collector frees it, is not this run's call."""
    gc.collect()
    counts: collections.Counter = collections.Counter()

    def count(frame, event, arg):
        if event == "call":
            counts[key(frame.f_code)] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return counts, result


def report() -> None:
    """Print calls per message by layer of both floods on every core."""
    from repro.sim.backend import available_backends
    from tests.integration.test_message_cost import layer_calls_per_message

    for kind in ("eager", "rdv"):
        for backend in available_backends():
            per = layer_calls_per_message(kind, backend)
            cells = "  ".join(
                f"{name} {per[name]:.2f}" for name in (*LAYERS, OTHER, OUTSIDE) if per[name]
            )
            print(f"{kind:5} {backend:6} total {sum(per.values()):.2f}  {cells}")


if __name__ == "__main__":
    report()
