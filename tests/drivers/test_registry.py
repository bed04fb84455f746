"""The driver-API registry: ``DRIVER_APIS``, checked where a rail is read.

A rail's driver is data: one :class:`~repro.drivers.base.Driver` serves
every API, and ``RailSpec.driver`` names which one the rail speaks.
"""

import pytest

import repro.drivers
from repro import Session, single_rail_platform
from repro.drivers import Driver
from repro.hardware.presets import (
    GIGE_TCP,
    MYRI_10G,
    MYRINET_2000,
    PRESET_RAILS,
    QUADRICS_QM500,
    SCI_D33X,
)
from repro.hardware.spec import DRIVER_APIS, PlatformSpec, RailSpec
from repro.util.config import platform_from_dict
from repro.util.errors import ConfigError


def test_builtin_drivers_registered():
    """The five APIs of the paper's §2: Elan, GM-2, MX, SiSCI and sockets."""
    assert DRIVER_APIS == ("elan", "gm", "mx", "sisci", "tcp")


def test_default_specs_have_matching_driver_names():
    """Every preset's API is one of these: tests/hardware/test_presets.py."""
    assert (MYRI_10G.driver, QUADRICS_QM500.driver) == ("mx", "elan")
    assert (SCI_D33X.driver, GIGE_TCP.driver) == ("sisci", "tcp")


@pytest.mark.parametrize(
    "name,cls",
    [("mx", "MXDriver"), ("elan", "ElanDriver"), ("sisci", "SisciDriver"), ("tcp", "TCPDriver")],
)
def test_driver_class_lookup(name, cls):
    """A rail speaking ``name`` is driven by the one ``Driver``; ``cls``, the
    per-API class that used to serve it, is no longer there to look up."""
    rail = next(r for r in PRESET_RAILS.values() if r.driver == name)
    driver = Session(single_rail_platform(rail), strategy="greedy").engine(0).drivers[0]
    assert type(driver) is Driver
    assert driver.spec.driver == name
    assert not hasattr(repro.drivers, cls)


def test_unknown_driver():
    rail = {**MYRI_10G.to_dict(), "name": "x", "driver": "verbs"}
    with pytest.raises(ConfigError, match="rail x: unknown driver 'verbs'; choose from elan, gm"):
        RailSpec(**rail)
    with pytest.raises(ConfigError, match="unknown driver 'verbs'"):
        platform_from_dict({"rails": [rail]})
    with pytest.raises(ConfigError, match="unknown driver 'verbs'"):
        platform_from_dict({"rails": [{"preset": "myri10g", "overrides": {"driver": "verbs"}}]})


def test_each_rail_gets_one_driver_with_its_spec():
    rails = (MYRI_10G, QUADRICS_QM500, SCI_D33X, GIGE_TCP, MYRINET_2000)
    engine = Session(PlatformSpec(rails=rails), strategy="greedy").engine(0)
    assert [type(d) for d in engine.drivers] == [Driver] * len(rails)
    assert [d.spec for d in engine.drivers] == list(rails)


def test_gm_driver_registered():
    """GM-2 is the API of the Myrinet-2000 preset, the one rail that speaks it."""
    assert [r.name for r in PRESET_RAILS.values() if r.driver == "gm"] == ["myri2000"]


def test_gm_end_to_end():
    from repro import run_pingpong, single_rail_platform

    res = run_pingpong(
        Session(single_rail_platform(MYRINET_2000), strategy="aggreg"),
        8 * 1024 * 1024,
        reps=2,
    )
    assert res.bandwidth_MBps == pytest.approx(245.0, rel=0.05)


def test_mixed_myrinet_generations():
    """Myri-10G + Myrinet-2000 on one node: sampling adapts the split."""
    from repro import run_pingpong, sample_rails
    from repro.hardware.presets import PAPER_HOST

    spec = PlatformSpec(rails=(MYRI_10G, MYRINET_2000), n_nodes=2, host=PAPER_HOST)
    samples = sample_rails(spec)
    ratios = samples.ratios(["myri10g", "myri2000"])
    assert ratios["myri10g"] > 0.8  # the old rail carries its fair trickle
    res = run_pingpong(
        Session(spec, strategy="split_balance", samples=samples), 8 * 1024 * 1024, reps=2
    )
    assert res.bandwidth_MBps > 1200.0  # still beats Myri-10G alone
