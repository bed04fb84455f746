"""Unit tests for the driver registry."""

import pytest

from repro.drivers import (
    Driver,
    ElanDriver,
    MXDriver,
    SisciDriver,
    TCPDriver,
    available_drivers,
    driver_class,
    make_driver,
    register_driver,
)
from repro.hardware import Platform
from repro.hardware.presets import GIGE_TCP, MYRI_10G, QUADRICS_QM500, SCI_D33X, paper_platform
from repro.hardware.spec import PlatformSpec
from repro.sim import Simulator
from repro.util.errors import DriverError


def test_builtin_drivers_registered():
    assert set(available_drivers()) >= {"mx", "elan", "sisci", "tcp"}


@pytest.mark.parametrize(
    "name,cls",
    [("mx", MXDriver), ("elan", ElanDriver), ("sisci", SisciDriver), ("tcp", TCPDriver)],
)
def test_driver_class_lookup(name, cls):
    assert driver_class(name) is cls


def test_unknown_driver():
    with pytest.raises(DriverError, match="unknown driver"):
        driver_class("smoke-signals")


def test_make_driver_resolves_by_rail_spec():
    plat = Platform(
        Simulator(),
        PlatformSpec(rails=(MYRI_10G, QUADRICS_QM500, SCI_D33X, GIGE_TCP)),
    )
    classes = [type(make_driver(plat, i, 0)) for i in range(4)]
    assert classes == [MXDriver, ElanDriver, SisciDriver, TCPDriver]


def test_default_specs_have_matching_driver_names():
    assert driver_class(MYRI_10G.driver) is MXDriver
    assert driver_class(QUADRICS_QM500.driver) is ElanDriver
    assert driver_class(SCI_D33X.driver) is SisciDriver
    assert driver_class(GIGE_TCP.driver) is TCPDriver


def test_register_duplicate_rejected():
    with pytest.raises(DriverError):
        register_driver("mx", MXDriver)


def test_register_requires_driver_subclass():
    with pytest.raises(DriverError):
        register_driver("notadriver", int)


def test_register_custom_with_overwrite():
    class FancyDriver(MXDriver):
        api_name = "fancy"

    register_driver("fancy_test", FancyDriver)
    try:
        assert driver_class("fancy_test") is FancyDriver
        register_driver("fancy_test", MXDriver, overwrite=True)
        assert driver_class("fancy_test") is MXDriver
    finally:
        from repro.drivers.registry import _REGISTRY

        _REGISTRY.pop("fancy_test", None)


def test_gm_driver_registered():
    """The paper's §2 lists five driver APIs; all five exist."""
    from repro.drivers import GMDriver, MYRINET_2000

    assert driver_class("gm") is GMDriver
    assert MYRINET_2000.driver == "gm"


def test_gm_end_to_end():
    from repro import Session, run_pingpong, single_rail_platform
    from repro.drivers import MYRINET_2000

    res = run_pingpong(
        Session(single_rail_platform(MYRINET_2000), strategy="aggreg"),
        8 * 1024 * 1024,
        reps=2,
    )
    assert res.bandwidth_MBps == pytest.approx(245.0, rel=0.05)


def test_mixed_myrinet_generations():
    """Myri-10G + Myrinet-2000 on one node: sampling adapts the split."""
    from repro import PlatformSpec, Session, run_pingpong, sample_rails
    from repro.drivers import MYRINET_2000
    from repro.hardware.presets import MYRI_10G, PAPER_HOST

    spec = PlatformSpec(rails=(MYRI_10G, MYRINET_2000), n_nodes=2, host=PAPER_HOST)
    samples = sample_rails(spec)
    ratios = samples.ratios(["myri10g", "myri2000"])
    assert ratios["myri10g"] > 0.8  # the old rail carries its fair trickle
    res = run_pingpong(
        Session(spec, strategy="split_balance", samples=samples), 8 * 1024 * 1024, reps=2
    )
    assert res.bandwidth_MBps > 1200.0  # still beats Myri-10G alone
