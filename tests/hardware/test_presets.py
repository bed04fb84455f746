"""Calibration invariants of the rail presets (DESIGN.md §5)."""

import pytest

from repro.hardware.presets import (
    GIGE_TCP,
    IB_DDR,
    MYRI_10G,
    PRESET_RAILS,
    QUADRICS_QM500,
    SCI_D33X,
    paper_platform,
    single_rail_platform,
)
from repro.hardware.spec import DRIVER_APIS


def test_paper_platform_shape():
    p = paper_platform()
    assert p.n_nodes == 2
    assert [r.name for r in p.rails] == ["myri10g", "qsnet2"]
    assert p.host.bus_MBps == pytest.approx(1850.0)


def test_paper_platform_node_count_param():
    assert paper_platform(n_nodes=5).n_nodes == 5


def test_single_rail_platform():
    p = single_rail_platform(QUADRICS_QM500, n_nodes=3)
    assert p.n_rails == 1 and p.n_nodes == 3


def test_myri_faster_bandwidth_quadrics_lower_latency():
    """The paper's defining asymmetry (§1/§3.1)."""
    assert MYRI_10G.bw_MBps > QUADRICS_QM500.bw_MBps
    assert QUADRICS_QM500.lat_us < MYRI_10G.lat_us
    assert QUADRICS_QM500.poll_cost_us < MYRI_10G.poll_cost_us


def test_bus_below_nic_sum():
    """Bus contention must be able to bind (paper: 1675 < 1200+850)."""
    p = paper_platform()
    assert p.host.bus_MBps < MYRI_10G.bw_MBps + QUADRICS_QM500.bw_MBps


def test_every_preset_driver_is_registered():
    for preset in PRESET_RAILS.values():
        assert preset.driver in DRIVER_APIS


def test_preset_registry_complete():
    assert set(PRESET_RAILS) == {"myri10g", "qsnet2", "myri2000", "sci", "gige", "ibddr"}
    for name, preset in PRESET_RAILS.items():
        assert preset.name == name


def test_tcp_has_no_zero_copy_receive():
    assert GIGE_TCP.zero_copy_recv is False
    assert MYRI_10G.zero_copy_recv is True


def test_extra_presets_are_plausible():
    assert IB_DDR.bw_MBps > MYRI_10G.bw_MBps  # IB DDR outruns Myri-10G
    assert SCI_D33X.bw_MBps < QUADRICS_QM500.bw_MBps
    assert GIGE_TCP.lat_us > 10 * MYRI_10G.lat_us
