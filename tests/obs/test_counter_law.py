"""Counted once, read the same: the accounting of seven fixed runs equals
the parent's, byte for byte, on every event core.

The pump no longer increments ``sweeps``, ``polls``, ``packets_committed``
or ``segments_submitted``: the bag derives them when it is read, from the
fastest rail's poll tally, the send channels' sequence counters and the
drivers' eager posts.  ``tests/obs/data/counters_parent.json`` was
captured by :mod:`tests.obs.counters_capture` at the commit where the
pump still counted each of them itself.
"""

import json
import os

import pytest

from repro.sim.backend import available_backends
from tests.obs.counters_capture import SCENARIOS, counted

PARENT = os.path.join(os.path.dirname(__file__), "data", "counters_parent.json")


def _parent():
    with open(PARENT) as fh:
        return json.load(fh)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_a_run_counts_what_the_parent_counted(scenario, backend):
    want = _parent()[backend][scenario]
    got = counted(SCENARIOS[scenario](backend))
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_the_capture_covers_every_scenario_on_both_cores():
    parent = _parent()
    assert sorted(parent) == ["heap", "native"]
    for backend in parent:
        assert sorted(parent[backend]) == sorted(SCENARIOS)
    # the two cores count the same runs alike
    assert parent["heap"] == parent["native"]
