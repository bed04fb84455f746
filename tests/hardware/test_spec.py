"""Unit tests for hardware specifications."""

import dataclasses
import math

import pytest

from repro.hardware import HostSpec, PlatformSpec, RailSpec, TopologySpec
from repro.hardware.presets import MYRI_10G, QUADRICS_QM500
from repro.util.errors import ConfigError


def rail(**kw):
    base = dict(name="r", driver="mx", lat_us=1.0, bw_MBps=100.0, pio_MBps=50.0)
    base.update(kw)
    return RailSpec(**base)


#: a valid instance of every spec class that holds float fields
_VALID = {
    RailSpec: dict(name="r", driver="mx", lat_us=1.0, bw_MBps=100.0, pio_MBps=50.0),
    HostSpec: {},
    TopologySpec: dict(kind="rail_opt", hosts=4, link_MBps=100.0),
}


@pytest.mark.parametrize(
    "cls,field,bad",
    [
        pytest.param(cls, f.name, bad, id=f"{cls.__name__}.{f.name}={bad}")
        for cls in _VALID
        for f in dataclasses.fields(cls)
        if f.type == "float"
        for bad in (math.nan, math.inf, -math.inf)
    ],
)
def test_non_finite_float_fields_rejected_by_name(cls, field, bad):
    """NaN fails no ``<`` test and ``json.loads`` accepts it: every float
    field is checked with ``isfinite``, and the error names the field."""
    cls(**_VALID[cls])  # the base case is valid
    with pytest.raises(ConfigError, match=rf"{field} must be a finite number") as err:
        cls(**{**_VALID[cls], field: bad})
    assert "\n" not in str(err.value)


class TestRailSpec:
    def test_valid_construction(self):
        r = rail()
        assert r.name == "r" and r.eager_threshold == 16384

    @pytest.mark.parametrize(
        "field,value",
        [
            ("name", ""),
            ("lat_us", -1.0),
            ("bw_MBps", 0.0),
            ("pio_MBps", -5.0),
            ("eager_threshold", -1),
            ("poll_cost_us", -0.1),
            ("post_cost_us", -0.1),
            ("handle_cost_us", -0.1),
            ("entry_cost_us", -0.1),
            ("rdv_setup_us", -1.0),
            ("header_bytes", -1),
            ("ctrl_bytes", 0),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ConfigError):
            rail(**{field: value})

    def test_replace_returns_modified_copy(self):
        r = rail()
        r2 = r.replace(poll_cost_us=9.0)
        assert r2.poll_cost_us == 9.0
        assert r.poll_cost_us != 9.0

    def test_dict_roundtrip(self):
        r = rail(zero_copy_recv=False)
        assert RailSpec.from_dict(r.to_dict()) == r

    def test_frozen(self):
        with pytest.raises(Exception):
            rail().lat_us = 2.0


class TestHostSpec:
    def test_defaults(self):
        h = HostSpec()
        assert h.memcpy_MBps > 0 and h.bus_MBps > 0

    @pytest.mark.parametrize("field", ["memcpy_MBps", "bus_MBps"])
    def test_invalid_rejected(self, field):
        with pytest.raises(ConfigError):
            HostSpec(**{field: 0.0})

    def test_dict_roundtrip(self):
        h = HostSpec(memcpy_MBps=123.0, bus_MBps=456.0)
        assert HostSpec.from_dict(h.to_dict()) == h


class TestPlatformSpec:
    def test_construction_and_iteration(self):
        p = PlatformSpec(rails=(MYRI_10G, QUADRICS_QM500))
        assert p.n_rails == 2 and p.n_nodes == 2
        assert [r.name for r in p] == ["myri10g", "qsnet2"]

    def test_needs_two_nodes(self):
        with pytest.raises(ConfigError):
            PlatformSpec(rails=(MYRI_10G,), n_nodes=1)

    def test_needs_one_rail(self):
        with pytest.raises(ConfigError):
            PlatformSpec(rails=())

    def test_duplicate_rail_names_rejected(self):
        with pytest.raises(ConfigError):
            PlatformSpec(rails=(MYRI_10G, MYRI_10G))

    def test_rail_index(self):
        p = PlatformSpec(rails=(MYRI_10G, QUADRICS_QM500))
        assert p.rail_index("qsnet2") == 1
        with pytest.raises(ConfigError):
            p.rail_index("nope")

    def test_single_rail_restriction(self):
        p = PlatformSpec(rails=(MYRI_10G, QUADRICS_QM500), n_nodes=3)
        q = p.single_rail("qsnet2")
        assert q.n_rails == 1 and q.rails[0].name == "qsnet2"
        assert q.n_nodes == 3  # everything else preserved

    def test_with_rails(self):
        p = PlatformSpec(rails=(MYRI_10G,))
        q = p.with_rails([QUADRICS_QM500])
        assert q.rails[0].name == "qsnet2"

    def test_dict_roundtrip(self):
        p = PlatformSpec(rails=(MYRI_10G, QUADRICS_QM500), n_nodes=4)
        q = PlatformSpec.from_dict(p.to_dict())
        assert q == p
