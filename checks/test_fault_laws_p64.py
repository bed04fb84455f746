"""A rail lost in the middle of an allreduce at P=64 never costs the
answer: the law of ``tests/oracle/test_fault_laws.py`` on the
rail-optimized preset at four times its ranks, plus two facts of the
larger run — every loss is retried once, and every rank built its engine."""

from repro.faults.plan import FaultEvent, FaultPlan
from repro.hardware.topology import rail_optimized_platform
from tests.oracle.test_fault_laws import NEVER_US, _allreduce, _assert_right_and_clean

P = 64


def test_a_rail_lost_mid_allreduce_at_p64_never_costs_the_answer():
    spec = rail_optimized_platform(P)
    _, _, flows, _ = _allreduce(spec)
    rail, started, _ = flows[len(flows) // 2]
    # cut the rail ten microseconds into its middle chunk, for good
    plan = FaultPlan([FaultEvent("down", started + 10.0, rail, duration_us=NEVER_US)])
    session, held, _, _ = _allreduce(spec, plan)
    _assert_right_and_clean(session, held, P)
    snap = session.metrics.snapshot()
    lost = sum(v for k, v in snap.items() if k.startswith("fault.lost."))
    retries = sum(v for k, v in snap.items() if k.startswith("fault.retries"))
    assert lost > 0 and retries == lost, (lost, retries)
    assert session.engines.built_count == P
