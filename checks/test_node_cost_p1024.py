"""What a node holds at P=1024, gated: the numbers DESIGN.md §6 "What a
node costs" quotes.  Eight ``multilane_allreduce`` + one
``multilane_barrier`` on ``rail_optimized_platform(1024)``, measured as
``tests/integration/test_node_cost.py`` measures its P=256 row, per node:

    ======================  =======================  ==============
    what                    tuple channel keys       one int each
    ======================  =======================  ==============
    tracked objects         47.5                     47.5
    traced bytes            15 530                   13 065
    ======================  =======================  ==============

(CPython 3.11, native core; heap reads within 50 B.)  The byte ceiling
sits 7 % above the int keys and under the tuple keys, so a per-channel
tuple (or any other 2.5 KB a node) coming back fails here.
"""

import pytest

from repro.sim.backend import available_backends
from tests.integration.test_node_cost import _collectives

P = 1024
OBJECTS_PER_NODE = 52.0
BYTES_PER_NODE = 14_000


@pytest.mark.parametrize("backend", available_backends())
def test_a_p1024_node_stays_under_its_object_and_byte_ceilings(backend):
    session, objects, nbytes = _collectives(P, backend)
    assert session.engines.built_count == P
    print(f"\nP={P} {backend}: {objects:.1f} tracked objects, {nbytes:.0f} traced bytes per node")
    assert objects <= OBJECTS_PER_NODE, f"{objects:.1f} tracked objects per node"
    assert nbytes <= BYTES_PER_NODE, f"{nbytes:.0f} traced bytes per node"
